"""Constructive lettering of arbitrary graphs whose prime quotients the
exact solver can handle, and the (p, q, r) profile of any graph.

The recursion walks vertex masks of the input graph, so word entries are
its own ids and the only graph built at a node is the prime quotient. It
peels isolated/dominating vertices, splits along the prime quotient
(union, join, or a genuine prime graph), letters the quotient exactly,
and expands each quotient letter into a word for its module.
Homogeneous modules take the quotient letter or a copy of it with the
self-pair flipped; non-homogeneous modules recurse on fresh letters. Every
node allocates fresh letter ids and only ever adds decoder pairs, so one
``compose`` call gathers them in a single pair set. Pairs come from module
letter sets, as in the paper's construction: in G = H[M_1..M_h] two
vertices of different modules are adjacent as their modules are in H, so
at a join every letter of one side pairs with every letter of the other,
and at a prime node the letters of modules v != w pair as the quotient
letters of v and w do in D_H. Each isomorphism class of prime quotients
is solved once per process: a labelled quotient met before reuses its
lettering, and one with the canonical code of a solved quotient reuses
its decoder and runs only the least-word search on its own labels (see
``_prime_lettering``). A remembered solve is not run again, not even
under a later call's deadline. ``compose`` and ``profile`` read (p, q, r)
off the decomposition, searching only prime quotients for stacked paths
and matchings, weighted by module values and kept per labelled quotient.
The result is an upper-bound constructor: no attempt is made to minimize
the alphabet afterwards, and the certificate measures the gap against the
bound tables.
"""

from __future__ import annotations

import functools
import itertools
import json

from .graphs import (DOMINATING, ISOLATED, Graph, _bits, _canonical,
                     _record, to_graph6)
from .letters import Decoder, Lettering, _lettering_dict, symbol, verify
from .modular import _MEMO_SIZE, _split
from .obstructions import (ClassProfile, f_impl, f_paper,
                           max_induced_matching, max_stacked_path)
from .run import Run
from .solver import _least_lettering, lettericity


def _peel(g: Graph, mask: int) -> tuple[tuple[tuple[int, str], ...], int]:
    """Successively remove the least-id isolated vertex of g[mask], or
    failing that the least-id dominating vertex, until neither kind
    remains. Returns the removed ``(vertex, kind)`` pairs in addition order
    (the outermost-removed vertex last), in ``g``'s ids, and the core, which
    has neither kind of vertex (or is empty), as a bitmask."""
    rows, live, alive = g.rows, _bits(mask), mask
    removal: list[tuple[int, str]] = []
    while live:
        pick = next(((v, ISOLATED) for v in live if not rows[v] & alive),
                    None) or next(((v, DOMINATING) for v in live
                                   if rows[v] & alive | 1 << v == alive), None)
        if pick is None:
            break
        removal.append(pick)
        live.remove(pick[0])
        alive ^= 1 << pick[0]
    return tuple(reversed(removal)), alive


# letters are integers during composition; pairs live in one set per call

def _attach_peeled(word, removed, alloc, pairs):
    """Return ``word`` followed by the peeled ``(vertex, kind)`` pairs of
    ``removed`` (in addition order), adding the new pairs to ``pairs``.

    Every letter of the result points at the fresh dominating letter d;
    nothing points at the fresh isolated letter i.
    """
    kinds = {kind for _, kind in removed}
    fresh = {kind: alloc() for kind in (ISOLATED, DOMINATING)
             if kind in kinds}
    word = word + [(v, fresh[kind]) for v, kind in removed]
    if DOMINATING in fresh:
        pairs.update((a, fresh[DOMINATING]) for _, a in word)
    return word


def _finalize(word, pairs) -> Lettering:
    """Compact letter ids to 0..L-1 over the letters actually used and build
    a concrete Lettering."""
    used = sorted({a for _, a in word})
    remap = {a: i for i, a in enumerate(used)}
    k = len(used)
    matrix = [[False] * k for _ in range(k)]
    for a, b in pairs:
        if a in remap and b in remap:
            matrix[remap[a]][remap[b]] = True
    dec = Decoder(tuple(symbol(i) for i in range(k)),
                  tuple(tuple(row) for row in matrix))
    return Lettering(dec, tuple(remap[a] for _, a in word),
                     tuple(v for v, _ in word))


@_record
class CompositionCertificate:
    lettering: Lettering
    alphabet_size: int
    recursion_tree: dict
    bound_check: dict

    def to_json(self) -> str:
        return json.dumps({
            "lettering": _lettering_dict(self.lettering),
            "alphabet_size": self.alphabet_size,
            "recursion_tree": self.recursion_tree,
            "bound_check": self.bound_check,
        })


# Each memo below keeps the last ``_MEMO_SIZE`` entries, as modular's does.
# One solved prime quotient per isomorphism class, oldest first: the
# canonical code maps to k and D*'s code (bit a*k + b is entry (a, b)).
_classes: dict[int, tuple[int, int]] = {}


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _prime_lettering(h: Graph) -> tuple[
        int, Lettering, str, tuple[tuple[int, int], ...]]:
    """``lettericity(h)`` for a labelled prime quotient, with what ``build``
    derives from it alone: h's graph6, for the recursion tree, and its
    plan, the ordered vertex pairs (v, u) of h whose letters form a pair
    of the decoder, in the order of ``itertools.permutations``. The entry
    is remembered for the life of the process (the last ``_MEMO_SIZE``
    labelled quotients), with one solve per isomorphism class (the last
    ``_MEMO_SIZE`` canonical codes in ``_classes``). A miss of the
    labelled memo that finds h's code there takes the class's k and least
    fitting decoder D* and runs only the least-word search on ``h``,
    under the enclosing run's deadline. Otherwise it calls
    ``lettericity``, looked up at each miss so that a patched solver sees
    every solve, and stores the class. A solve or search that raises
    stores nothing. Callers share the returned (immutable) entry, so they
    must not alter it.

    The entry's (k, lettering) is byte for byte ``lettericity(h)``.
    Renaming the vertices of a k-lettering gives a k-lettering of the
    relabelled graph with the same decoder and word, so h and the class's
    solved H' have the same lettericity k and the same set of fitting
    k-letter decoders, hence the same least one, D*, which is the decoder
    ``lettericity(h)`` returns. Its lettering is D* with the least word of
    ``h`` under D*, found by ``solver._least_lettering``, the very tail
    that ``is_k_letterable`` runs on ``h``.

    The memo lives here, not in ``solver.lettericity``, whose ``budget``
    must raise whatever was solved before."""
    code = _canonical(h)[0]
    if code in _classes:
        k, least = _classes[code]
        lett = _least_lettering(h, k, least, Run())
    else:
        k, lett = lettericity(h)
        if len(_classes) >= _MEMO_SIZE:
            del _classes[next(iter(_classes))]
        _classes[code] = k, sum(x << i for i, x in enumerate(
            itertools.chain(*lett.decoder.pairs)))
    d_h = lett.decoder.pairs
    letter_of = dict(zip(lett.vertex_of_position, lett.word))
    plan = tuple((v, u) for v, u in itertools.permutations(range(h.n), 2)
                 if d_h[letter_of[v]][letter_of[u]])
    return k, lett, to_graph6(h), plan


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _prime_stacked_depth(h: Graph, depths: tuple[int, ...]) -> int:
    """``max_stacked_path`` of a prime quotient ``h`` weighted by its module
    depths, kept per labelled (h, depths), the last ``_MEMO_SIZE``."""
    return max_stacked_path(h, depths)[0]


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _prime_matching(h: Graph, weights: tuple[int, ...], co: bool) -> int:
    """``max_induced_matching`` of a prime quotient ``h``, or with ``co`` of
    its complement, weighted by its modules' matchings, kept per labelled
    (h, weights, co), the last ``_MEMO_SIZE`` of them, as the same labelled
    quotients recur with the same module values."""
    return max_induced_matching(h.complement() if co else h, weights)[0]


def _homogeneous(g: Graph, mask: int, both: bool = False) -> bool | None:
    """True if g[mask] is complete, False if it is edgeless, None if it is
    neither. A graph that is both, one vertex, gives ``both``."""
    if not mask & mask - 1:
        return both
    rows, left = g.rows, mask  # the least vertex tells which it can be
    complete = rows[(mask & -mask).bit_length() - 1] & mask != 0
    while left:  # each row in the mask is the other vertices, or none
        low = left & -left
        left ^= low
        if rows[low.bit_length() - 1] & mask != (mask ^ low) * complete:
            return None
    return complete


def _layer(g: Graph, mask: int):
    """The top of g[mask]'s decomposition, in ``g``'s ids, which ``build``
    and ``profile`` walk: ``(complete, (), None, [])`` if ``_homogeneous``
    finds it complete or edgeless, else ``(None, removed, h, parts)``, the
    peeled vertices then ``_split`` of the core (None and [] if empty)."""
    complete = _homogeneous(g, mask)
    if complete is not None:
        return complete, (), None, []
    removed, core = _peel(g, mask)
    return (None, removed, *(_split(g, core) if core else (None, [])))


def _homogeneous_stats(n: int, complete: bool) -> tuple[int, int, int]:
    """(r, m, cm) of K_n, or of n vertices and no edge: the largest stacked
    path R_r (0 for none) and induced matchings of the graph and of its
    complement. Two edges of K_n always touch or are joined; R_r has an
    edge and a non-edge."""
    return 0, int(n > 1 and complete), int(n > 1 and not complete)


def _node_stats(h: Graph | None, stats) -> tuple[int, int, int]:
    """(r, m, cm) of a graph that is not homogeneous, from the quotient ``h``
    of its peeled core (None if no vertex is left) and ``stats``, the
    (r, m, cm) of the core's modules in ``h``'s order. Peeled vertices lie on
    no induced 2K2, C4 or R_r, which have no isolated or dominating vertex, so
    they keep the core's values, which are positive; a fully peeled graph is
    threshold (2K2-, C4-, P4-free) with an edge and a non-edge. R_r is
    connected and co-connected, so a union or join keeps the larger r. A union
    adds m and keeps the larger cm, at least 1 (a co-matching with two edges
    lies in one side); a join the reverse."""
    if h is None:
        return 0, 1, 1
    if h.n == 2:
        (r1, m1, c1), (r2, m2, c2) = stats
        if h.adjacent(0, 1):
            return max(r1, r2), max(m1, m2, 1), c1 + c2
        return max(r1, r2), m1 + m2, max(c1, c2, 1)
    depths, ms, cms = zip(*stats)
    return (_prime_stacked_depth(h, depths), _prime_matching(h, ms, False),
            _prime_matching(h, cms, True))


def profile(g: Graph) -> ClassProfile:
    """The (p, q, r) profile of ``g``: p - 1, q - 1 and r - 1 are its largest
    induced matching, co-matching and stacked path. Read off the modular
    decomposition by ``compose``'s rules, with no solve and no scale guard."""
    def walk(mask: int) -> tuple[int, int, int]:
        complete, _, h, parts = _layer(g, mask)
        if complete is not None:
            return _homogeneous_stats(mask.bit_count(), complete)
        return _node_stats(h, [walk(p) for p in parts])

    try:
        r, m, cm = walk((1 << g.n) - 1)
    finally:
        del walk  # walk refers to itself: free it at return or raise
    return ClassProfile(m + 1, cm + 1, r + 1)


def compose(g: Graph) -> CompositionCertificate:
    """Produce a verified lettering of ``g`` with alphabet accounting.

    Every prime quotient met in the recursion must fit the exact solver's
    scale guards (``solver.MAX_N`` vertices, ``solver.MAX_K`` letters), or
    :class:`ScaleError` is raised. The certificate records the maximum
    quotient lettericity encountered and compares the alphabet against the
    bound tables. Its profile, read off in the same pass, equals
    ``profile(g)``. Every build step, prime-quotient solve and the final
    bound check stop at the enclosing :class:`Run`'s deadline and raise
    :class:`BudgetExceeded`: bound a call with ``with Run(seconds):``.
    Each isomorphism class of prime quotients is solved once per process,
    so a class solved by an earlier call runs no solve under this call's
    deadline; only a new labelling's least-word search runs under it.
    """
    if g.n == 0:
        raise ValueError("graph must be nonempty")
    run = Run()
    alloc = itertools.count().__next__  # fresh global letter ids
    pairs: set[tuple[int, int]] = set()
    prime_ls: list[int] = []

    def build(mask: int):
        """Return (word, tree, (r, m, cm)) for g[mask] and add its decoder
        pairs to ``pairs``; word entries carry ``g``'s own vertex ids.
        (r, m, cm) is as in ``_homogeneous_stats``.

        At a prime node the module words follow H's word, so letters of
        modules v != w meet in the order v and w do there, and the pairs
        letters(v) x letters(w) are added exactly when (letter(v),
        letter(w)) is a pair of D_H: every edge between two modules decodes
        as H's. A homogeneous module takes its quotient letter's base letter
        when its kind matches that letter's self-pair (a one-vertex module
        always does), else a fresh copy; its letter pairs with itself
        exactly when it is complete. Modules share only base letters, with
        the same quotient letter and kind, so no two rules disagree on a
        pair. Base letters are allocated before the modules, in
        quotient-letter order, which fixes every letter id.
        """
        run.check("compose")
        n = mask.bit_count()
        complete, removed, h, parts = _layer(g, mask)
        # homogeneous graphs take one letter; this also floors the bound
        # tables' p=1 / q=1 base cases
        if complete is not None:
            a = alloc()
            if complete:
                pairs.add((a, a))
            return [(v, a) for v in _bits(mask)], {
                "case": "homogeneous", "n": n, "letters": 1}, \
                _homogeneous_stats(n, complete)

        if h is None:
            # fully peelable: both kinds occurred, else step one fired
            word = _attach_peeled([], removed, alloc, pairs)
            return word, {"case": "peel", "n": n,
                          "letters": len({a for _, a in word})}, \
                _node_stats(h, ())

        if h.n == 2:
            case = "join" if h.adjacent(0, 1) else "union"
            words, subtrees, stats = zip(*map(build, parts))
            if case == "join":
                first, second = ({a for _, a in w} for w in words)
                pairs.update(itertools.product(first, second))
                pairs.update(itertools.product(second, first))
            word = words[0] + words[1]
            node = {"case": case, "n": n,
                    "quotient": to_graph6(h), "modules": list(subtrees)}
        else:
            ell, h_lett, h6, plan = _prime_lettering(h)
            prime_ls.append(ell)
            d_h = h_lett.decoder.pairs
            letter_of = dict(zip(h_lett.vertex_of_position, h_lett.word))
            # fresh global ids for the quotient's letters
            base = {a: alloc() for a in sorted(set(h_lett.word))}
            a_set, b_set, module_words, subtrees, stats = [], [], [], [], []
            for v, part in enumerate(parts):
                a, size = letter_of[v], part.bit_count()
                complete = _homogeneous(g, part, d_h[a][a])
                if complete is None:
                    a_set.append(v)
                    w, t, st = build(part)
                    stats.append(st)
                    subtrees.append({"case": "recursive-module",
                                     "vertex": v, "n": size, "tree": t})
                else:
                    b_set.append(v)
                    stats.append(_homogeneous_stats(size, complete))
                    # the base letter, or a copy with the self-pair flipped
                    x = base[a] if complete == d_h[a][a] else alloc()
                    if complete:
                        pairs.add((x, x))
                    w = [(u, x) for u in _bits(part)]
                    subtrees.append({"case": "homogeneous-module",
                                     "vertex": v, "n": size, "letter": x})
                module_words.append(w)
            module_letters = [{x for _, x in w} for w in module_words]
            for v, u in plan:
                pairs.update(itertools.product(module_letters[v],
                                               module_letters[u]))
            word = [e for v in h_lett.vertex_of_position
                    for e in module_words[v]]
            node = {"case": "prime", "n": n,
                    "quotient": h6, "quotient_lettericity": ell,
                    "A": a_set, "B": b_set, "modules": subtrees}

        if removed:
            word = _attach_peeled(word, removed, alloc, pairs)
            node = {"case": "peel", "n": n, "core": node,
                    "peeled": len(removed)}
        return word, node, _node_stats(h, stats)

    try:
        word, tree, (r, m, cm) = build((1 << g.n) - 1)
    finally:
        del build  # build refers to itself: free it at return or raise
    lett = _finalize(word, pairs)
    if not verify(g, lett):  # soundness guard
        raise AssertionError("composed lettering failed verification")
    run.check("compose")
    p, q, r = m + 1, cm + 1, r + 1
    m_obs = max(prime_ls, default=0)
    alphabet_size = lett.letters_used()
    fi = f_impl(max(m_obs, 1), p, q, r)
    return CompositionCertificate(
        lettering=lett,
        alphabet_size=alphabet_size,
        recursion_tree=tree,
        bound_check={
            "profile": {"p": p, "q": q, "r": r},
            "max_prime_lettericity": m_obs,
            "f_paper": f_paper(p, q, r),
            "F_impl": fi,
            "within_F_impl": alphabet_size <= fi,
        })
