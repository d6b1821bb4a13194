"""The graph6 table behind ``graphs.all_graphs(n)`` for n <= 7.

``letterkit/_catalogue.py`` holds one line per n = 0..7 with the graph6
codes of the representatives, in catalogue order. This module rebuilds
every line with ``graphs._extend`` alone, starting from the empty graph,
without reading the table. Regenerate the table, from the repository
root, with:

    PYTHONPATH=src python3 -m tests.catalogue
"""

from __future__ import annotations

import functools
import os

from letterkit import graphs

MAX_N = 7
PATH = os.path.join(os.path.dirname(os.path.abspath(graphs.__file__)),
                    "_catalogue.py")

HEADER = '''\
"""All graphs on at most 7 vertices up to isomorphism, as graph6 codes.

Generated by ``PYTHONPATH=src python3 -m tests.catalogue``; do not edit.
Line n of GRAPH6 lists the representatives of ``graphs.all_graphs(n)`` in
catalogue order (increasing canonical code).
"""

GRAPH6 = r"""'''


@functools.lru_cache(maxsize=None)
def levels() -> tuple[tuple[graphs.Graph, ...], ...]:
    """The catalogues on 0..MAX_N vertices, each extended from the last."""
    out = [(graphs.empty(0),)]
    for n in range(1, MAX_N + 1):
        out.append(graphs._extend(out[-1], n))
    return tuple(out)


def render() -> str:
    lines = [" ".join(graphs.to_graph6(g) for g in level)
             for level in levels()]
    return HEADER + "\n".join(lines) + '"""\n'


if __name__ == "__main__":
    with open(PATH, "w") as fh:
        fh.write(render())
