"""Command-line surface: generators, decoding, the exact solver, modular
decomposition, obstruction profiles, the composer, and the claim-
verification suite.

Exit codes: 0 success/pass, 1 check failure, 2 usage error. ``--budget``
bounds the whole command, which runs in one :class:`Run`, as does each
``verify-paper`` suite inside it. Budget exhaustion is reported as its own
status (and exits 1, since the run did not complete).

Every command runs in a process of its own, so this module imports at
module level only what every command needs: ``graphs`` (the parser's
``--family`` choices), the run context that wraps each command, and
``claims``. Each command imports the rest in its own body, and each claim
does the same, so a process compiles only the modules its command runs.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import claims, graphs
from .run import BudgetExceeded, Run


def _read_graph(path: str) -> graphs.Graph:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path) as fh:
            text = fh.read()
    return graphs.from_graph6(text)


def _cmd_gen(args) -> int:
    g, labels = graphs.generate(args.family, n=args.n, seq=_parse_seq(args.seq))
    if args.dot:
        print(graphs.to_dot(g))
    elif args.json:
        obj = {"n": g.n, "edges": g.edges(), "graph6": graphs.to_graph6(g)}
        if labels is not None:
            obj["labels"] = [list(t) for t in labels.roles]
        print(json.dumps(obj))
    else:
        print(graphs.to_graph6(g))
    return 0


def _parse_seq(seq: str | None):
    if seq is None:
        return None
    table = {"i": graphs.ISOLATED, "d": graphs.DOMINATING}
    try:
        return [table[c] for c in seq]
    except KeyError:
        raise ValueError(f"creation sequence must be over i/d, got {seq!r}")


def _cmd_decode(args) -> int:
    from . import letters
    dec = letters.Decoder.from_shorthand(args.decoder, args.word)
    word = tuple(dec.index(c) for c in args.word)
    g = letters.decode(dec, word)
    print(graphs.to_graph6(g))
    return 0


def _parse_classes(path: str):
    from . import solver
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not all(
            isinstance(cls, list) and all(type(v) is int for v in cls)
            for cls in data):
        raise ValueError("classes must be a JSON list of lists of vertex ids")
    return solver.LetterClassConstraint.of(*data)


def _cmd_lettericity(args) -> int:
    from . import letters, solver
    g = _read_graph(args.graph)
    if args.classes or args.max_k is not None:
        k = args.max_k if args.max_k is not None else min(g.n, solver.MAX_K)
        constraint = _parse_classes(args.classes) if args.classes else None
        report = solver.is_k_letterable(g, k, constraint)
        print(report.to_json())
        return 0
    k, lett = solver.lettericity(g)
    if args.json:
        print(json.dumps({"lettericity": k,
                          "lettering": letters._lettering_dict(lett)}))
    else:
        print(k)
    return 0


def _cmd_decompose(args) -> int:
    from . import modular
    g = _read_graph(args.graph)
    if args.tree:
        print(json.dumps(modular.decomposition_tree(g)))
    else:
        print(modular.quotient(g).to_json())
    return 0


def _cmd_profile(args) -> int:
    from . import composer, obstructions
    g = _read_graph(args.graph)
    prof = composer.profile(g)
    out = {"p": prof.p, "q": prof.q, "r": prof.r}
    if args.m is not None:
        b = obstructions.bounds(args.m, prof.p, prof.q, prof.r)
        out.update({"m": args.m, "g": b.g, "f_paper": b.f_paper,
                    "F_impl": b.f_impl})
    print(json.dumps(out))
    return 0


def _cmd_compose(args) -> int:
    from . import composer
    g = _read_graph(args.graph)
    cert = composer.compose(g)
    if args.json:
        print(cert.to_json())
    else:
        print(f"alphabet_size={cert.alphabet_size} "
              f"word={cert.lettering.word_string()}")
    return 0


# -- the claim-verification suite --------------------------------------------
# Each suite runs one claim of letterkit.claims at a scale that finishes in
# seconds; tests/test_acceptance.py runs the same claims at full scale.

_SUITES = {
    "prop41": lambda seed: claims.matching_lettericity(),
    "prop43": lambda seed: claims.constrained_stacked(),
    "thm32": lambda seed: claims.prime_classification(),
    "thm51": lambda seed: claims.composer_bound(
        max_n=6, inflations=25, max_module=5, seed=seed),
    "dualities": lambda seed: claims.complement_duality(max_n=5),
}

# perfbench/workloads.py draws its inflations through this name.
_random_cograph = claims.random_cograph


def _cmd_verify_paper(args) -> int:
    # only an absent --suite means every suite; an empty one is a bad name
    names = sorted(_SUITES if args.suite is None
                   else set(args.suite.split(",")))
    for name in names:
        if name not in _SUITES:
            print(f"unknown suite {name!r}", file=sys.stderr)
            return 2
    failed = False
    for name in names:  # output ordering fixed by check name
        try:
            with Run() as suite:  # times the suite under the command's run
                result = _SUITES[name](args.seed)
        except BudgetExceeded:
            result = {"status": "budget-exhausted"}
        else:
            result["status"] = "pass" if result.pop("pass") else "FAIL"
            result["elapsed"] = round(suite.elapsed, 3)
        print(json.dumps({"check": name, **result}))
        if result["status"] != "pass":
            failed = True
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="letterkit",
        description="letter graphs: exact lettericity, modular "
                    "decomposition, obstructions, and lettering composition")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named graph family")
    p.add_argument("--family", required=True, choices=graphs._FAMILIES)
    p.add_argument("--n", type=int)
    p.add_argument("--seq", help="threshold creation sequence over i/d")
    p.add_argument("--dot", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("decode", help="decode a word against a decoder")
    p.add_argument("--decoder", required=True,
                   help='comma-separated ordered pairs, e.g. "ab,ba"')
    p.add_argument("--word", required=True)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("lettericity", help="exact lettericity of a graph")
    p.add_argument("graph", help="graph6 file path or - for stdin")
    p.add_argument("--max-k", type=int, default=None,
                   help="run a single k-letterability check instead")
    p.add_argument("--classes", help="JSON file with same-letter classes")
    p.add_argument("--budget", type=float, default=None, help="seconds")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_lettericity)

    p = sub.add_parser("decompose", help="modular decomposition")
    p.add_argument("graph")
    p.add_argument("--tree", action="store_true",
                   help="full recursive decomposition tree")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("profile", help="(p, q, r) obstruction profile")
    p.add_argument("graph")
    p.add_argument("--m", type=int, default=None,
                   help="also print the bound tables for this m")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("compose", help="constructive lettering with certificate")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.add_argument("--budget", type=float, default=None)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("verify-paper", help="run the claim-verification suite")
    p.add_argument("--suite", help="comma-separated subset: "
                                   + ",".join(sorted(_SUITES)))
    p.add_argument("--budget", type=float, default=None, help="seconds")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized checks")
    p.set_defaults(func=_cmd_verify_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        with Run(getattr(args, "budget", None)):
            return args.func(args)
    except BudgetExceeded as exc:
        print(json.dumps({"status": "budget-exhausted", "detail": str(exc)}))
        return 1
    except (ValueError, OSError) as exc:  # ScaleError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
