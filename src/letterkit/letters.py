"""Letter-graph semantics: decoders, words, letterings, and their checks."""

from __future__ import annotations

import json

from .graphs import DOMINATING, Graph, _record, threshold

#: The symbols of the first 52 letters, a-z then A-Z; see ``symbol``.
LETTER_SYMBOLS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def symbol(index: int) -> str:
    """Letter ``index`` written out: a .. Z, then a1 .. Z1, a2 .. Z2, ..."""
    if index < len(LETTER_SYMBOLS):
        return LETTER_SYMBOLS[index]
    rounds, i = divmod(index, len(LETTER_SYMBOLS))
    return LETTER_SYMBOLS[i] + str(rounds)


@_record
class Decoder:
    """An alphabet plus the set of ordered pairs governing adjacency.

    ``pairs[a][b]`` is True iff letter a followed by letter b decodes to
    an edge.
    """

    alphabet: tuple[str, ...]
    pairs: tuple[tuple[bool, ...], ...]

    def __post_init__(self):
        k = len(self.alphabet)
        if len(set(self.alphabet)) != k:
            raise ValueError("alphabet symbols must be distinct")
        if len(self.pairs) != k or any(len(row) != k for row in self.pairs):
            raise ValueError("pair matrix must be k x k")

    @property
    def size(self) -> int:
        return len(self.alphabet)

    def index(self, sym: str) -> int:
        return self.alphabet.index(sym)

    @staticmethod
    def from_pairs(alphabet, pair_list) -> "Decoder":
        alphabet = tuple(alphabet)
        idx = {s: i for i, s in enumerate(alphabet)}
        matrix = [[False] * len(alphabet) for _ in alphabet]
        for a, b in pair_list:
            for sym in (a, b):
                if sym not in idx:
                    raise ValueError(
                        f"decoder pair names {sym!r}, not in the alphabet")
            matrix[idx[a]][idx[b]] = True
        return Decoder(alphabet, tuple(tuple(row) for row in matrix))

    def pair_list(self) -> list[tuple[str, str]]:
        return [(self.alphabet[a], self.alphabet[b])
                for a in range(self.size) for b in range(self.size)
                if self.pairs[a][b]]

    @staticmethod
    def from_shorthand(text: str, word: str = "") -> "Decoder":
        """Parse the CLI shorthand: comma-separated two-character pairs,
        e.g. "ab,ba". The alphabet is the sorted set of characters seen in
        the pairs and the (optional) word."""
        pairs = []
        for chunk in filter(None, (c.strip() for c in text.split(","))):
            if len(chunk) != 2:
                raise ValueError(f"bad decoder pair {chunk!r}")
            pairs.append((chunk[0], chunk[1]))
        letters = sorted({c for p in pairs for c in p} | set(word))
        return Decoder.from_pairs(letters, pairs)


def _check_word(word: tuple, decoder: Decoder) -> None:
    """Raise ValueError unless ``word`` holds int letters of ``decoder``."""
    if word and (set(map(type, word)) != {int} or min(word) < 0 or
                 max(word) >= len(decoder.alphabet)):
        raise ValueError("word entry is not a valid letter index")


def decode(decoder: Decoder, word) -> Graph:
    """The letter graph of ``word``: positions i < j are adjacent iff the
    ordered pair (word[i], word[j]) is in the decoder."""
    word = tuple(word)
    if not word:
        raise ValueError("word must be nonempty")
    _check_word(word, decoder)
    n = len(word)
    return Graph.from_edges(n, ((i, j) for i in range(n)
                                for j in range(i + 1, n)
                                if decoder.pairs[word[i]][word[j]]))


@_record
class Lettering:
    """A decoder, a word of letter indices, and the bijection sending word
    positions to graph vertices."""

    decoder: Decoder
    word: tuple[int, ...]
    vertex_of_position: tuple[int, ...]

    def __post_init__(self):
        # letter indices and vertex ids are ints, and a bool is not one
        word, order = self.word, self.vertex_of_position
        _check_word(word, self.decoder)
        if order and set(map(type, order)) != {int} or \
                sorted(order) != list(range(len(word))):
            raise ValueError("vertex_of_position must be a bijection onto 0..n-1")

    @property
    def n(self) -> int:
        return len(self.word)

    def letters_used(self) -> int:
        return len(set(self.word))

    def word_string(self) -> str:
        return "".join(self.decoder.alphabet[a] for a in self.word)


def verify(g: Graph, lettering: Lettering) -> bool:
    """Exact check that the lettering decodes to ``g`` (under the stored
    position-to-vertex bijection, not merely up to isomorphism)."""
    if lettering.n != g.n:
        raise ValueError("word length must equal vertex count")
    # from the last position back: the vertex at position i must be
    # adjacent to exactly the later vertices whose letter b has
    # pairs[w[i]][b]; ``later[b]`` holds the later vertices with letter b
    rows, pairs = g.rows, lettering.decoder.pairs
    later, seen = [0] * lettering.decoder.size, 0
    for a, v in zip(reversed(lettering.word),
                    reversed(lettering.vertex_of_position)):
        want = 0
        for edge, mask in zip(pairs[a], later):
            if edge:
                want |= mask
        if rows[v] & seen != want:
            return False
        later[a] |= 1 << v
        seen |= 1 << v
    return True


def threshold_lettering(creation_sequence) -> Lettering:
    """The 2-letter lettering of a threshold graph, word in addition order.

    The first vertex's letter is folded into the rest when the tail is
    monochromatic, so edgeless and complete outcomes use a single letter.
    """
    seq = list(creation_sequence)
    g = threshold(seq)
    kinds = list(seq)
    tail = set(kinds[1:])
    if len(tail) == 1:
        kinds[0] = tail.pop()
    letters = sorted({"d" if k == DOMINATING else "i" for k in kinds})
    dec = Decoder.from_pairs(letters,
                             [(a, "d") for a in letters if "d" in letters])
    word = tuple(dec.index("d" if k == DOMINATING else "i") for k in kinds)
    lett = Lettering(dec, word, tuple(range(g.n)))
    if not verify(g, lett):
        raise AssertionError("threshold lettering failed verification")
    return lett


# -- JSON schema ------------------------------------------------------------

def _lettering_dict(lettering: Lettering) -> dict:
    dec = lettering.decoder
    return {
        "alphabet": list(dec.alphabet),
        "decoder": [list(p) for p in dec.pair_list()],
        "word": [dec.alphabet[a] for a in lettering.word],
        "vertex_of_position": list(lettering.vertex_of_position),
    }


def lettering_to_json(lettering: Lettering) -> str:
    return json.dumps(_lettering_dict(lettering))


def _symbols(value, what: str) -> list[str]:
    if not isinstance(value, list) or \
            not all(isinstance(s, str) for s in value):
        raise ValueError(f"lettering {what} must be a list of strings")
    return value


def lettering_from_json(text: str) -> Lettering:
    """The lettering ``lettering_to_json`` wrote. Malformed input raises
    ValueError that names the problem."""
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise ValueError("a lettering must be a JSON object")
    missing = [f for f in ("alphabet", "decoder", "word", "vertex_of_position")
               if f not in obj]
    if missing:
        raise ValueError(f"lettering lacks {', '.join(missing)}")
    pairs = obj["decoder"]
    if not isinstance(pairs, list) or any(
            len(_symbols(p, "decoder pair")) != 2 for p in pairs):
        raise ValueError("lettering decoder must be a list of letter pairs")
    dec = Decoder.from_pairs(_symbols(obj["alphabet"], "alphabet"),
                             [tuple(p) for p in pairs])
    word = _symbols(obj["word"], "word")
    for s in word:
        if s not in dec.alphabet:
            raise ValueError(f"lettering word names {s!r}, not in the "
                             "alphabet")
    order = obj["vertex_of_position"]
    if not isinstance(order, list):  # Lettering checks its entries
        raise ValueError("lettering vertex_of_position must be a list")
    return Lettering(dec, tuple(map(dec.index, word)), tuple(order))
