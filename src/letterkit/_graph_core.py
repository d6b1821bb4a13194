"""The private helpers of ``letterkit.graphs``: frozen records, set bits
and the canonical labelling. It imports nothing of letterkit."""

from __future__ import annotations

import operator
from functools import lru_cache


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _record(cls):
    """Make ``cls`` a frozen value class over its annotated fields, in
    order, as ``dataclasses.dataclass(frozen=True)`` does, but cheaper to
    import: construction by position or keyword, then ``__post_init__`` if
    the class has one; AttributeError on assignment or deletion; equality
    by exact class and fields, a hash over the fields and the repr
    ``Name(field=value, ...)``.

    Only ``__init__`` is compiled, one per class and on the class's first
    construction, so a process pays for the classes it uses alone, and a
    construction costs what a dataclass's does."""
    names = tuple(cls.__dict__["__annotations__"])
    fields = operator.attrgetter(*names)
    post = cls.__dict__.get("__post_init__")

    def __init__(self, *args, **kwargs):  # replaces itself on first use
        source = f"def __init__(self, {', '.join(names)}):\n" + "".join(
            f"    _set(self, {name!r}, {name})\n" for name in names)
        if post is not None:
            source += "    _post(self)\n"
        space = {"__name__": cls.__module__, "_post": post,
                 "_set": object.__setattr__}
        exec(source, space)
        cls.__init__ = space["__init__"]
        cls.__init__(self, *args, **kwargs)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in names) + ")"

    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = \
        __init__, __eq__, __hash__, __repr__
    cls.__setattr__, cls.__delattr__ = _frozen_setattr, _frozen_delattr
    cls.__match_args__ = names
    return cls


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _refine_colors(g: Graph) -> list[int]:
    """Iterated neighborhood-color refinement (1-WL); returns stable colors
    encoded so equal ints mean indistinguishable vertices."""
    nbrs = [_bits(row) for row in g.rows]
    colors = [len(us) for us in nbrs]
    while True:
        sigs = [(c, tuple(sorted([colors[u] for u in us])))
                for c, us in zip(colors, nbrs)]
        order = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if new == colors:
            return colors
        colors = new


@lru_cache(maxsize=64)
def _twins(g: Graph) -> tuple[int, ...]:
    """For each vertex v of ``g``, its twins as a bitmask: the u != v whose
    row equals v's (not adjacent) or does with u and v added (adjacent),
    so swapping u and v is an automorphism. Kept for the last 64 graphs."""
    group: dict[int, int] = {}
    for v, row in enumerate(g.rows):
        for key in row, ~(row | 1 << v):  # ~ keeps the two kinds distinct
            group[key] = group.get(key, 0) | 1 << v
    return tuple((group[row] | group[~(row | 1 << v)]) & ~(1 << v)
                 for v, row in enumerate(g.rows))


@lru_cache(maxsize=64)
def _nons(g: Graph) -> tuple[int, ...]:
    """For each vertex v of ``g``, its non-neighbours as a bitmask, v's
    other side from its row. Kept for the last 64 graphs."""
    full = (1 << g.n) - 1
    return tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.rows))


@lru_cache(maxsize=64)
def _canonical(g: Graph) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """``canonical_code(g)``, a vertex ordering that reaches it, and each
    vertex's orbit under Aut(g) as a bitmask, by branch and bound over
    ordered partitions of the unplaced vertices, from the colour classes
    in order. Placing v of the first part at position i splits every part
    into v's non-neighbours, then its neighbours: row i at its least under
    the prefix. Only branches with the least row go on; v is one per twin
    class (a twin swap fixes the prefix and the parts), and one branch per
    partition, which alone fixes the rows to come. Kept for the last 64
    graphs.

    The orbits come from the branches dropped (McKay, "Practical graph
    isomorphism", 1981). Each starts as v and its twins. A prefix ``new``
    dropped for an ``old`` one with the same rows and the same partition
    of the same unplaced vertices gives every completion of both the same
    code, so the map old[j] -> new[j], fixing the rest, is an automorphism,
    and the orbits of old[j] and new[j] merge. These maps and the twin
    swaps generate Aut(g). Any ordering with the least code keeps every
    partition in order (sorting within a part lowers its rows), so at each
    depth one of them carries it to a kept prefix: a twin swap where its
    vertex was skipped, a merge map where its partition was dropped. They
    carry every least ordering to the one found, and Aut(g) acts on the
    least orderings without fixed points, so they give all of it."""
    n, rows, twins, code = g.n, g.rows, _twins(g), 0
    orbits = [1 << v | twins[v] for v in range(n)]
    colors = _refine_colors(g)
    level = {tuple(sum(1 << v for v, c in enumerate(colors) if c == k)
                   for k in sorted(set(colors))): ()}  # parts -> prefix
    for i in range(n):
        least, kept = -1, {}
        for parts, order in level.items():
            first = left = parts[0]
            while left:
                v = (left & -left).bit_length() - 1
                left &= ~twins[v] & left - 1
                row, rest, bits = rows[v], (first & ~(1 << v), *parts[1:]), 0
                for part in rest:  # zeros, then a one per neighbour
                    bits = (bits << part.bit_count()
                            | (1 << (part & row).bit_count()) - 1)
                if bits > least >= 0:
                    continue
                if bits != least:
                    least, kept = bits, {}
                split = [s for p in rest for s in (p & ~row, p & row) if s]
                new = (*order, v)
                old = kept.setdefault(tuple(split), new)
                if old is not new:  # new is dropped: merge the orbits
                    for a, b in zip(old, new):
                        if not orbits[a] >> b & 1:
                            merged = orbits[a] | orbits[b]
                            for u in _bits(merged):
                                orbits[u] = merged
        code, level = code << n - 1 - i | least, kept
    return (n << n * n) | code, next(iter(level.values())), tuple(orbits)
