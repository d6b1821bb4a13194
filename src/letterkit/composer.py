"""Constructive lettering of arbitrary graphs whose prime quotients the
exact solver can handle.

The recursion peels isolated/dominating vertices, splits along the prime
quotient (union, join, or a genuine prime graph), letters the quotient
exactly, and expands each quotient letter into a word for its module.
Homogeneous modules reuse the quotient's letters or minted per-base-letter
copies; non-homogeneous modules recurse on fresh alphabets. The result is
an upper-bound constructor: no attempt is made to minimize the alphabet
afterwards, and the certificate measures the gap against the bound tables.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass

from .graphs import DOMINATING, ISOLATED, Graph, to_graph6
from .letters import Decoder, Lettering, symbol, verify
from .modular import quotient
from .obstructions import f_impl, f_paper, profile
from .solver import BudgetExceeded, lettericity


@dataclass(frozen=True)
class PeelTrace:
    """Vertices removed because they were isolated or dominating, stored in
    addition order (the outermost-removed vertex last), plus the remaining
    core, which has neither kind of vertex (or is empty)."""

    removed: tuple[tuple[int, str], ...]
    core: Graph
    core_ids: tuple[int, ...]


def peel(g: Graph) -> PeelTrace:
    """Successively remove the least-id isolated vertex, or failing that the
    least-id dominating vertex, until neither kind remains."""
    alive = list(range(g.n))
    removal: list[tuple[int, str]] = []
    while alive:
        k = len(alive)
        pick = None
        for v in alive:
            if all(not g.adjacent(v, u) for u in alive if u != v):
                pick = (v, ISOLATED)
                break
        if pick is None:
            for v in alive:
                if all(g.adjacent(v, u) for u in alive if u != v):
                    pick = (v, DOMINATING)
                    break
        if pick is None:
            break
        removal.append(pick)
        alive.remove(pick[0])
    return PeelTrace(tuple(reversed(removal)), g.induced(alive), tuple(alive))


# letters are integers during composition; pairs live in a set

def _attach_peeled_ids(word, pairs, letters, trace: PeelTrace, alloc):
    """Append the peeled vertices (in addition order) after the core word.

    Every existing letter points at the fresh dominating letter d; nothing
    points at the fresh isolated letter i.
    """
    kinds = {kind for _, kind in trace.removed}
    iso = alloc() if ISOLATED in kinds else None
    dom = alloc() if DOMINATING in kinds else None
    new_letters = set(letters)
    if iso is not None:
        new_letters.add(iso)
    if dom is not None:
        new_letters.add(dom)
    new_pairs = set(pairs)
    if dom is not None:
        new_pairs |= {(x, dom) for x in new_letters}
    new_word = list(word)
    for v, kind in trace.removed:
        new_word.append((v, iso if kind == ISOLATED else dom))
    return new_word, new_pairs, new_letters


def attach_peeled(core_lettering: Lettering, trace: PeelTrace,
                  g: Graph) -> Lettering:
    """Public single-step form of the peel reattachment, on Letterings.

    ``core_lettering`` must verify against ``trace.core``; positions in it
    refer to core-local ids, which are mapped back through the trace.
    """
    if not verify(trace.core, core_lettering):
        raise ValueError("core lettering does not verify against the core")
    dec = core_lettering.decoder
    word = [(trace.core_ids[core_lettering.vertex_of_position[i]],
             core_lettering.word[i]) for i in range(core_lettering.n)]
    pairs = {(a, b) for a in range(dec.size) for b in range(dec.size)
             if dec.pairs[a][b]}
    alloc = itertools.count(dec.size).__next__
    new_word, new_pairs, new_letters = _attach_peeled_ids(
        word, pairs, set(range(dec.size)), trace, alloc)
    lett = _finalize(new_word, new_pairs)
    if not verify(g, lett):
        raise AssertionError("reattached lettering failed verification")
    return lett


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


@dataclass(frozen=True)
class CompositionCertificate:
    lettering: Lettering
    alphabet_size: int
    recursion_tree: dict
    bound_check: dict

    def to_json(self) -> str:
        from .letters import lettering_to_json
        return json.dumps({
            "lettering": json.loads(lettering_to_json(self.lettering)),
            "alphabet_size": self.alphabet_size,
            "recursion_tree": self.recursion_tree,
            "bound_check": self.bound_check,
        })


def compose(g: Graph, *, max_n: int = 12, max_k: int = 5,
            budget: float | None = None) -> CompositionCertificate:
    """Produce a verified lettering of ``g`` with alphabet accounting.

    Every prime quotient met in the recursion must fit the exact solver's
    scale guard; the certificate records the maximum quotient lettericity
    encountered and compares the alphabet against the bound tables.
    ``budget`` is wall-clock seconds for the whole call: each prime-quotient
    solve gets the time left, and :class:`BudgetExceeded` is raised once
    none is left.
    """
    if g.n == 0:
        raise ValueError("graph must be nonempty")
    deadline = None if budget is None else time.monotonic() + budget
    alloc = itertools.count().__next__  # fresh global letter ids
    prime_ls: list[int] = []

    def build(graph: Graph, ids: list[int]):
        """Return (word, pairs, letters, tree) for ``graph``; word entries
        carry original vertex ids via ``ids``."""
        # homogeneous graphs take one letter; this also floors the bound
        # tables' p=1 / q=1 base cases
        edge_count = graph.edge_count()
        if edge_count == 0 or edge_count == graph.n * (graph.n - 1) // 2:
            a = alloc()
            pairs = {(a, a)} if edge_count else set()
            word = [(ids[v], a) for v in range(graph.n)]
            return word, pairs, {a}, {"case": "homogeneous",
                                      "n": graph.n, "letters": 1}

        trace = peel(graph)
        core, core_ids = trace.core, [ids[v] for v in trace.core_ids]
        if core.n == 0:
            # fully peelable: both kinds occurred, else step one fired
            word, pairs, letters = _attach_peeled_ids(
                [], set(), set(),
                PeelTrace(tuple((ids[v], k) for v, k in trace.removed),
                          core, ()),
                alloc)
            return word, pairs, letters, {"case": "peel", "n": graph.n,
                                          "letters": len(letters)}

        dec = quotient(core)
        h = dec.quotient
        if h.n == 2:
            case = "union" if not h.adjacent(0, 1) else "join"
            words, all_pairs, all_letters, subtrees = [], set(), set(), []
            for part, sub in zip(dec.modules, dec.module_graphs):
                w, p, l, t = build(sub, [core_ids[v] for v in part])
                words.append(w)
                all_pairs |= p
                all_letters |= l
                subtrees.append(t)
            if case == "join":
                l1 = {a for _, a in words[0]}
                l2 = {a for _, a in words[1]}
                all_pairs |= {(x, y) for x in l1 for y in l2}
                all_pairs |= {(y, x) for x in l1 for y in l2}
            word = words[0] + words[1]
            node = {"case": case, "n": graph.n,
                    "quotient": to_graph6(h), "modules": subtrees}
        else:
            remaining = None if deadline is None else \
                deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise BudgetExceeded("compose ran past its budget")
            ell, h_lett = lettericity(h, max_n=max_n, max_k=max_k,
                                      budget=remaining)
            prime_ls.append(ell)
            d_h = h_lett.decoder
            pos_of_vertex = [0] * h.n
            for pos, v in enumerate(h_lett.vertex_of_position):
                pos_of_vertex[v] = pos
            # fresh global ids for the quotient's letters
            base_id = {a: alloc() for a in sorted(set(h_lett.word))}
            base_of: dict[int, int] = {i: a for a, i in base_id.items()}
            group_of: dict[int, int] = {i: -1 for i in base_id.values()}
            a_set, b_set = [], []
            module_words: dict[int, list] = {}
            internal_pairs: set[tuple[int, int]] = set()
            subtrees = []
            for v in range(h.n):
                part, sub = dec.modules[v], dec.module_graphs[v]
                sub_ids = [core_ids[u] for u in part]
                h_letter = h_lett.word[pos_of_vertex[v]]
                self_pair = d_h.pairs[h_letter][h_letter]
                ec = sub.edge_count()
                is_complete = ec == sub.n * (sub.n - 1) // 2
                is_edgeless = ec == 0
                if is_complete or is_edgeless:
                    b_set.append(v)
                    if sub.n == 1 or (self_pair and is_complete) or \
                            (not self_pair and is_edgeless):
                        letter = base_id[h_letter]
                    else:
                        letter = alloc()  # copy of the base, self-pair flipped
                        base_of[letter] = h_letter
                        group_of[letter] = -1
                        if is_complete:
                            internal_pairs.add((letter, letter))
                    module_words[v] = [(u, letter) for u in sub_ids]
                    subtrees.append({"case": "homogeneous-module",
                                     "vertex": v, "n": sub.n,
                                     "letter": letter})
                else:
                    a_set.append(v)
                    w, p, l, t = build(sub, sub_ids)
                    module_words[v] = w
                    internal_pairs |= p
                    for x in l:
                        base_of[x] = h_letter
                        group_of[x] = v
                    subtrees.append({"case": "recursive-module",
                                     "vertex": v, "n": sub.n, "tree": t})
            # cross pairs follow the quotient decoder on base letters,
            # directionally; reused base self-pairs come along with D_H
            all_base = sorted(base_of)
            pairs = set(internal_pairs)
            for x in all_base:
                for y in all_base:
                    if x == y and group_of[x] >= 0:
                        continue  # recursive-module internals stay internal
                    if group_of[x] >= 0 and group_of[x] == group_of[y]:
                        continue
                    if x != y and (x, y) in internal_pairs:
                        continue
                    if group_of[x] == -1 and group_of[y] == -1 and x != y and \
                            base_of[x] == base_of[y]:
                        # copies of one base letter: copy the base self-pair
                        if d_h.pairs[base_of[x]][base_of[x]]:
                            pairs.add((x, y))
                        continue
                    if x == y:
                        if x in base_id.values() and \
                                d_h.pairs[base_of[x]][base_of[x]]:
                            pairs.add((x, x))
                        continue
                    if d_h.pairs[base_of[x]][base_of[y]]:
                        pairs.add((x, y))
            word = []
            for pos in range(h.n):
                word += module_words[h_lett.vertex_of_position[pos]]
            all_pairs, all_letters = pairs, set(base_of)
            node = {"case": "prime", "n": graph.n,
                    "quotient": to_graph6(h), "quotient_lettericity": ell,
                    "A": a_set, "B": b_set, "modules": subtrees}

        if trace.removed:
            word, all_pairs, all_letters = _attach_peeled_ids(
                word, all_pairs, all_letters,
                PeelTrace(tuple((ids[v], k) for v, k in trace.removed),
                          core, ()),
                alloc)
            node = {"case": "peel", "n": graph.n, "core": node,
                    "peeled": len(trace.removed)}
        return word, all_pairs, all_letters, node

    word, pairs, _, tree = build(g, list(range(g.n)))
    lett = _finalize(word, pairs)
    if not verify(g, lett):  # soundness guard
        raise AssertionError("composed lettering failed verification")
    prof = profile(g)
    m_obs = max(prime_ls) if prime_ls else 0
    m_eff = max(m_obs, 1)
    alphabet_size = lett.letters_used()
    fp = f_paper(prof.p, prof.q, prof.r)
    fi = f_impl(m_eff, prof.p, prof.q, prof.r)
    return CompositionCertificate(
        lettering=lett,
        alphabet_size=alphabet_size,
        recursion_tree=tree,
        bound_check={
            "profile": {"p": prof.p, "q": prof.q, "r": prof.r},
            "max_prime_lettericity": m_obs,
            "f_paper": fp,
            "F_impl": fi,
            "within_F_impl": alphabet_size <= fi,
        })
