import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from letterkit import (
    Decoder,
    Graph,
    Lettering,
    complete,
    decode,
    is_isomorphic,
    lettering_from_json,
    lettering_to_json,
    matching,
    path,
    threshold,
    threshold_lettering,
    verify,
)
from letterkit.graphs import DOMINATING, ISOLATED
from letterkit.letters import LETTER_SYMBOLS, symbol


# -- letter dualities and the distinguisher rule, as test oracles ----------

def complement_decoder(decoder: Decoder) -> Decoder:
    return Decoder(decoder.alphabet,
                   tuple(tuple(not x for x in row) for row in decoder.pairs))


def transpose_decoder(decoder: Decoder) -> Decoder:
    k = decoder.size
    return Decoder(decoder.alphabet,
                   tuple(tuple(decoder.pairs[b][a] for b in range(k))
                         for a in range(k)))


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


ID_DECODER = Decoder.from_pairs("id", [("i", "d"), ("d", "d")])
# single directed pair: a before b is an edge, b before a is not
AB_DECODER = Decoder.from_pairs("ab", [("a", "b")])


def test_decoder_validation():
    with pytest.raises(ValueError):
        Decoder(("a", "a"), ((False, False), (False, False)))
    with pytest.raises(ValueError):
        Decoder(("a", "b"), ((False,),) * 2)


def test_decoder_shorthand():
    dec = Decoder.from_shorthand("ab,ba")
    assert dec.alphabet == ("a", "b")
    assert dec.pair_list() == [("a", "b"), ("b", "a")]
    with pytest.raises(ValueError):
        Decoder.from_shorthand("abc")


def test_decode_examples():
    w = tuple(ID_DECODER.index(c) for c in "id")
    assert decode(ID_DECODER, w) == matching(1)
    # "iid" decodes to P3 with the d-vertex in the center of the path order
    w = tuple(ID_DECODER.index(c) for c in "iid")
    g = decode(ID_DECODER, w)
    assert g.edges() == [(0, 2), (1, 2)]
    assert is_isomorphic(g, path(3))
    w = tuple(AB_DECODER.index(c) for c in "abab")
    assert is_isomorphic(decode(AB_DECODER, w), path(4))


def test_decode_rejects_bad_input():
    with pytest.raises(ValueError):
        decode(ID_DECODER, ())
    # a letter index below 0, past the alphabet or not an int (a bool is
    # not one), in decode and Lettering
    for word in (0, 5), (0, 2), (-1, 0), (1, -1, 0), (True, False), (0.0, 1):
        with pytest.raises(ValueError, match="letter index"):
            decode(ID_DECODER, word)
        with pytest.raises(ValueError, match="letter index"):
            Lettering(ID_DECODER, word, tuple(range(len(word))))


@pytest.mark.parametrize("word, order", [
    ((0, 1), (True, False)), ((True, False), (0, 1)),
    ((0, 1), (0, 1.0)), ((0.0, 1), (0, 1))])
def test_lettering_rejects_ids_and_indices_that_are_not_ints(word, order):
    # a bool sorts and compares as 0 or 1, but its JSON is true or false,
    # which lettering_from_json rejects
    with pytest.raises(ValueError):
        Lettering(AB_DECODER, word, order)


def test_lettering_of_ints_round_trips_through_json():
    lett = Lettering(AB_DECODER, (0, 1), (1, 0))
    assert verify(path(2), lett)
    assert lettering_from_json(lettering_to_json(lett)) == lett


def test_verify():
    lett = Lettering(ID_DECODER, (0, 1), (0, 1))
    assert verify(matching(1), lett)
    # one shared {i,d} decoder cannot letter 2K2 as "idid"
    lett = Lettering(ID_DECODER, (0, 1, 0, 1), (0, 1, 2, 3))
    assert not verify(matching(2), lett)
    p4_lett = Lettering(AB_DECODER, (0, 1, 0, 1), (1, 0, 3, 2))
    assert verify(path(4), p4_lett)
    with pytest.raises(ValueError):
        verify(path(3), p4_lett)


def _pairwise_verify(g, lett):
    """Oracle: the definition, one vertex pair at a time."""
    w, vo, pairs = lett.word, lett.vertex_of_position, lett.decoder.pairs
    return all(g.adjacent(vo[i], vo[j]) == pairs[w[i]][w[j]]
               for i in range(g.n) for j in range(i + 1, g.n))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.integers(1, 9), st.integers(0, 2),
       st.randoms(use_true_random=False))
def test_verify_matches_the_pairwise_definition(k, n, flips, rnd):
    dec = Decoder(tuple("abcd"[:k]), tuple(
        tuple(rnd.random() < 0.5 for _ in range(k)) for _ in range(k)))
    word = tuple(rnd.randrange(k) for _ in range(n))
    order = list(range(n))
    rnd.shuffle(order)
    # the letter graph under the lettering's own labels, then up to two
    # pairs flipped, so that both answers occur
    edges = {tuple(sorted((order[i], order[j])))
             for i in range(n) for j in range(i + 1, n)
             if dec.pairs[word[i]][word[j]]}
    for _ in range(flips if n > 1 else 0):
        edges ^= {tuple(sorted(rnd.sample(range(n), 2)))}
    g = Graph.from_edges(n, edges)
    lett = Lettering(dec, word, tuple(order))
    assert verify(g, lett) == _pairwise_verify(g, lett)


def test_complement_decoder():
    w = tuple(AB_DECODER.index(c) for c in "abab")
    assert decode(complement_decoder(AB_DECODER), w) == \
        decode(AB_DECODER, w).complement()
    empty = Decoder.from_pairs("a", [])
    assert decode(complement_decoder(empty), (0, 0, 0)) == complete(3)
    assert complement_decoder(complement_decoder(AB_DECODER)) == AB_DECODER


def test_reverse_lettering():
    lett = Lettering(ID_DECODER, (0, 1), (0, 1))
    rev = reverse_lettering(lett)
    assert verify(matching(1), rev)
    assert reverse_lettering(rev) == lett
    p4_lett = Lettering(AB_DECODER, (0, 1, 0, 1), (1, 0, 3, 2))
    assert verify(path(4), reverse_lettering(p4_lett))


def test_distinguishers_between_same_letter_pairs():
    p4_lett = Lettering(AB_DECODER, (0, 1, 0, 1), (0, 1, 2, 3))
    assert distinguisher_positions(p4_lett) == []
    short = Lettering(Decoder.from_pairs("a", []), (0, 0), (0, 1))
    assert distinguisher_positions(short) == []


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 7), st.randoms(use_true_random=False))
def test_distinguishers_random_letterings(k, n, rnd):
    alphabet = "abc"[:k]
    pairs = [(a, b) for a in alphabet for b in alphabet if rnd.random() < 0.5]
    dec = Decoder.from_pairs(alphabet, pairs)
    word = tuple(rnd.randrange(k) for _ in range(n))
    lett = Lettering(dec, word, tuple(range(n)))
    assert distinguisher_positions(lett) == []


def test_threshold_lettering_examples():
    # the tail after the first vertex is monochromatic, so one letter suffices
    lett = threshold_lettering([ISOLATED, DOMINATING])
    assert lett.letters_used() == 1
    assert decode(lett.decoder, lett.word) == matching(1)
    lett = threshold_lettering([ISOLATED, ISOLATED, DOMINATING])
    assert lett.word_string() == "iid"
    assert is_isomorphic(decode(lett.decoder, lett.word), path(3))


def test_threshold_lettering_monochromatic_tail_uses_one_letter():
    assert threshold_lettering([ISOLATED] * 4).letters_used() == 1
    assert threshold_lettering(
        [ISOLATED, DOMINATING, DOMINATING]).letters_used() == 1


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([ISOLATED, DOMINATING]), min_size=1,
                max_size=50))
def test_threshold_lettering_verifies(seq):
    lett = threshold_lettering(seq)
    assert verify(threshold(seq), lett)
    assert lett.letters_used() <= 2


def test_same_letter_positions_clique_or_coclique():
    for k in (1, 2):
        for bits in itertools.product([False, True], repeat=k * k):
            matrix = tuple(tuple(bits[i * k + j] for j in range(k))
                           for i in range(k))
            dec = Decoder(tuple("ab"[:k]), matrix)
            for word in itertools.product(range(k), repeat=4):
                g = decode(dec, word)
                for a in range(k):
                    pos = [i for i, w in enumerate(word) if w == a]
                    pairs = [g.adjacent(u, v)
                             for u, v in itertools.combinations(pos, 2)]
                    expect = matrix[a][a]
                    assert all(p == expect for p in pairs)


def test_complement_duality_exhaustive_small():
    for k in (1, 2):
        for bits in itertools.product([False, True], repeat=k * k):
            matrix = tuple(tuple(bits[i * k + j] for j in range(k))
                           for i in range(k))
            dec = Decoder(tuple("ab"[:k]), matrix)
            for n in (1, 3, 5):
                for word in itertools.product(range(k), repeat=n):
                    assert decode(complement_decoder(dec), word) == \
                        decode(dec, word).complement()


def test_deleting_positions_letters_the_induced_subgraph():
    rnd = random.Random(7)
    for _ in range(50):
        k = rnd.randint(1, 3)
        alphabet = "abc"[:k]
        dec = Decoder.from_pairs(
            alphabet, [(a, b) for a in alphabet for b in alphabet
                       if rnd.random() < 0.5])
        n = rnd.randint(2, 8)
        word = tuple(rnd.randrange(k) for _ in range(n))
        g = decode(dec, word)
        keep = sorted(rnd.sample(range(n), rnd.randint(1, n)))
        sub_lett = Lettering(dec, tuple(word[i] for i in keep),
                             tuple(range(len(keep))))
        assert verify(g.induced(keep), sub_lett)


def test_lettering_json_roundtrip():
    lett = Lettering(AB_DECODER, (0, 1, 0, 1), (1, 0, 3, 2))
    text = lettering_to_json(lett)
    assert lettering_from_json(text) == lett
    assert '"alphabet": ["a", "b"]' in text


def test_lettering_json_rejects_a_pair_letter_outside_the_alphabet():
    text = json.dumps({"alphabet": ["a"], "decoder": [["a", "b"]],
                       "word": ["a"], "vertex_of_position": [0]})
    with pytest.raises(ValueError, match="'b'"):
        lettering_from_json(text)
    with pytest.raises(ValueError, match="'c'"):
        Decoder.from_pairs("ab", [("c", "a")])


_GOOD = {"alphabet": ["a", "b"], "decoder": [["a", "b"]],
         "word": ["a", "b"], "vertex_of_position": [1, 0]}


@pytest.mark.parametrize("obj, problem", [
    ({"alphabet": ["a"]}, "lacks decoder, word, vertex_of_position"),
    ({**_GOOD, "decoder": [[["a"], "b"]]}, "decoder pair"),
    ({**_GOOD, "vertex_of_position": ["1", 0]}, "vertex_of_position"),
    ({**_GOOD, "word": ["a"], "vertex_of_position": [False]},
     "vertex_of_position"),
    ([_GOOD], "JSON object"),
    ({**_GOOD, "word": ["a", "z"]}, "word names 'z'"),
    ({**_GOOD, "decoder": [["a"]]}, "list of letter pairs"),
], ids=["missing-field", "list-in-pair", "mixed-ids", "bool-id",
        "not-an-object", "word-outside-alphabet", "one-letter-pair"])
def test_lettering_json_rejects_malformed_input_with_value_error(obj,
                                                                 problem):
    assert lettering_from_json(json.dumps(_GOOD)) == \
        Lettering(AB_DECODER, (0, 1), (1, 0))
    with pytest.raises(ValueError, match=problem):
        lettering_from_json(json.dumps(obj))


def test_lettering_json_round_trips_past_52_letters():
    # letters past Z are written a1 .. Z1, then a2 ..; the first 52 keep
    # their single characters
    assert [symbol(i) for i in (0, 51, 52, 103, 104)] == \
        ["a", "Z", "a1", "Z1", "a2"]
    alphabet = tuple(symbol(i) for i in range(110))
    assert alphabet[:52] == tuple(LETTER_SYMBOLS)
    dec = Decoder.from_pairs(alphabet, [(alphabet[i], alphabet[i + 1])
                                        for i in range(0, 110, 2)])
    lett = Lettering(dec, tuple(range(110)), tuple(reversed(range(110))))
    assert lettering_from_json(lettering_to_json(lett)) == lett
    assert verify(matching(55), lett)


def test_threshold_lettering_soundness_guard_raises(monkeypatch):
    # an explicit raise, so the guard also runs under python -O
    from letterkit import letters
    monkeypatch.setattr(letters, "verify", lambda g, lett: False)
    with pytest.raises(AssertionError, match="failed verification"):
        threshold_lettering([ISOLATED, DOMINATING])
