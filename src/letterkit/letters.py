"""Letter-graph semantics: decoders, words, letterings, and their checks."""

from __future__ import annotations

import json
import string
from dataclasses import dataclass

from .graphs import DOMINATING, Graph, threshold

#: External single-character letter syntax: a-z then A-Z.
LETTER_SYMBOLS = string.ascii_lowercase + string.ascii_uppercase


def symbol(index: int) -> str:
    if index >= len(LETTER_SYMBOLS):
        raise ValueError("alphabets larger than 52 have no character syntax")
    return LETTER_SYMBOLS[index]


@dataclass(frozen=True)
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

    def has(self, a: int, b: int) -> bool:
        return self.pairs[a][b]

    def index(self, sym: str) -> int:
        return self.alphabet.index(sym)

    @staticmethod
    def from_pairs(alphabet, pair_list) -> "Decoder":
        alphabet = tuple(alphabet)
        idx = {s: i for i, s in enumerate(alphabet)}
        matrix = [[False] * len(alphabet) for _ in alphabet]
        for a, b in pair_list:
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


def complement_decoder(decoder: Decoder) -> Decoder:
    return Decoder(decoder.alphabet,
                   tuple(tuple(not x for x in row) for row in decoder.pairs))


def transpose_decoder(decoder: Decoder) -> Decoder:
    k = decoder.size
    return Decoder(decoder.alphabet,
                   tuple(tuple(decoder.pairs[b][a] for b in range(k))
                         for a in range(k)))


def decode(decoder: Decoder, word) -> Graph:
    """The letter graph of ``word``: positions i < j are adjacent iff the
    ordered pair (word[i], word[j]) is in the decoder."""
    word = tuple(word)
    if not word:
        raise ValueError("word must be nonempty")
    if any(not 0 <= a < decoder.size for a in word):
        raise ValueError("word entry is not a valid letter index")
    n = len(word)
    return Graph.from_edges(n, ((i, j) for i in range(n)
                                for j in range(i + 1, n)
                                if decoder.pairs[word[i]][word[j]]))


@dataclass(frozen=True)
class Lettering:
    """A decoder, a word of letter indices, and the bijection sending word
    positions to graph vertices."""

    decoder: Decoder
    word: tuple[int, ...]
    vertex_of_position: tuple[int, ...]

    def __post_init__(self):
        n = len(self.word)
        if any(not 0 <= a < self.decoder.size for a in self.word):
            raise ValueError("word entry is not a valid letter index")
        if sorted(self.vertex_of_position) != list(range(n)):
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
    w, vo, dec = lettering.word, lettering.vertex_of_position, lettering.decoder
    for i in range(g.n):
        for j in range(i + 1, g.n):
            if g.adjacent(vo[i], vo[j]) != dec.pairs[w[i]][w[j]]:
                return False
    return True


def reverse_lettering(lettering: Lettering) -> Lettering:
    """Reverse the word and transpose the decoder; decodes to the same graph
    under the same vertex identification."""
    return Lettering(transpose_decoder(lettering.decoder),
                     lettering.word[::-1],
                     lettering.vertex_of_position[::-1])


def distinguisher_positions(lettering: Lettering) -> list[tuple[int, int, int]]:
    """All triples (i, j, k), i < k with equal letters, where position j
    distinguishes i from k yet does not lie strictly between them.

    Empty for every lettering of its own letter graph: a distinguisher of a
    same-letter pair can only sit between the two positions.
    """
    g = decode(lettering.decoder, lettering.word)
    w = lettering.word
    bad = []
    for i in range(g.n):
        for k in range(i + 1, g.n):
            if w[i] != w[k]:
                continue
            for j in range(g.n):
                if j in (i, k):
                    continue
                if g.adjacent(j, i) != g.adjacent(j, k) and not i < j < k:
                    bad.append((i, j, k))
    return bad


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

def lettering_to_json(lettering: Lettering) -> str:
    dec = lettering.decoder
    return json.dumps({
        "alphabet": list(dec.alphabet),
        "decoder": [list(p) for p in dec.pair_list()],
        "word": [dec.alphabet[a] for a in lettering.word],
        "vertex_of_position": list(lettering.vertex_of_position),
    })


def lettering_from_json(text: str) -> Lettering:
    obj = json.loads(text)
    dec = Decoder.from_pairs(obj["alphabet"], [tuple(p) for p in obj["decoder"]])
    word = tuple(dec.index(s) for s in obj["word"])
    return Lettering(dec, word, tuple(obj["vertex_of_position"]))
