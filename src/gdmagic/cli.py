"""Command-line interface.

Verbs: groups, construct, label, search, verify, classify, obstructions.
Exit codes: 0 success/affirmative, 1 verified negative (no labeling exists,
certificate rejected, obstruction found), 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from typing import Optional, TextIO

from .abelian import GroupError, enumerate_abelian_groups, parse_group_spec
from .constructors import (
    METHODS,
    ConstructionError,
    label_with_method,
    method_product,
)
from .graphs import GraphError, construct_graph
from .magic import (
    Certificate,
    LabelingError,
    all_obstructions,
    format_certificate,
    load_certificate,
    save_certificate,
    verify_certificate,
    FORCED_IDENTITY,
)
from .solver import (
    SearchOptions,
    SolverError,
    classify_over_all_groups,
    search_labelings,
)

_USAGE_ERROR = 2
_NEGATIVE = 1


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first run() of a process, then reused."""
    parser = argparse.ArgumentParser(
        prog="gdmagic",
        description="Construct, search for, and verify distance magic "
                    "labelings of graphs over finite abelian groups.")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("groups", help="list abelian groups of a given order")
    p.add_argument("order", type=int)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("construct", help="build a graph from an expression")
    p.add_argument("expr")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("label", help="run a constructive labeler")
    p.add_argument("--graph", required=True, help="graph expression")
    p.add_argument("--h", help="second product factor expression")
    p.add_argument("--product", choices=("lex", "dir"),
                   help="product of --graph and --h (default: the method's "
                        "own product, lex for auto)")
    p.add_argument("--group", required=True, help="group spec, e.g. Z4xZ3")
    p.add_argument("--method", default="auto", choices=tuple(METHODS))
    p.add_argument("--s", type=int, help="cyclic 2-power exponent for the "
                                         "balanced-* methods")
    p.add_argument("--out", help="write the certificate to this file")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("search", help="exhaustively search for labelings")
    p.add_argument("--graph", required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--mode", choices=("first", "all", "count"),
                   default="first")
    p.add_argument("--naive", action="store_true",
                   help="use the permutation-scan oracle instead of pruning")
    p.add_argument("--order", choices=("degree_desc", "input"),
                   default="degree_desc")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify", help="check a certificate file")
    p.add_argument("--cert", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("classify", help="test all groups of matching order")
    p.add_argument("--graph", required=True)
    p.add_argument("--naive", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("obstructions", help="run the structural checks")
    p.add_argument("--graph", required=True)
    p.add_argument("--json", action="store_true")
    return parser


def _emit(out: TextIO, payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload), file=out)
    else:
        print(text, file=out)


def _cmd_groups(args, out: TextIO) -> int:
    specs = enumerate_abelian_groups(args.order)
    names = [str(s) for s in specs]
    _emit(out, {"order": args.order, "groups": names}, args.json,
          "\n".join(names))
    return 0


def _cmd_construct(args, out: TextIO) -> int:
    g = construct_graph(args.expr)
    edges = g.edges()
    if args.json:
        print(json.dumps({"vertices": g.n, "degrees": list(g.degrees),
                          "edges": [list(e) for e in edges]}), file=out)
    else:
        print(f"vertices: {g.n}", file=out)
        print("degrees: " + " ".join(str(d) for d in g.degrees), file=out)
        print("edges:", file=out)
        for u, v in edges:
            print(f"{u} {v}", file=out)
    return 0


def _cmd_label(args, out: TextIO, err: TextIO) -> int:
    group = parse_group_spec(args.group)
    g = construct_graph(args.graph)
    product = method_product(args.method, args.h is not None, args.product)
    h = None if product is None else construct_graph(args.h)
    report = label_with_method(args.method, g, h, product, group, args.s)
    graph_expr = (args.graph.strip() if h is None
                  else f"{product}({args.graph.strip()},{args.h.strip()})")
    if report is None:
        message = ("no labeling exists: no center label x with 2x equal to "
                   "the sum of all group elements")
        _emit(out, {"ok": False, "reason": message}, args.json, message)
        return _NEGATIVE
    cert = Certificate(graph_expr, group, report.predicted_mu,
                       report.labeling.assignment, report.theorem)
    ok, detail, _ = verify_certificate(cert)
    if not ok:  # never expected: certificates are re-verified before emission
        print(f"internal error: emitted certificate failed: {detail}",
              file=err)
        return _USAGE_ERROR
    if args.out:
        save_certificate(cert, args.out)
    if args.json:
        print(json.dumps({
            "ok": True,
            "theorem": report.theorem,
            "graph": graph_expr,
            "group": str(group),
            "mu": group.format_element(report.predicted_mu),
            "labels": [group.format_element(x)
                       for x in report.labeling.assignment],
            "parameters": report.parameters,
            "out": args.out,
        }), file=out)
    elif args.out:
        print(f"wrote certificate to {args.out} "
              f"(theorem {report.theorem}, mu "
              f"{group.format_element(report.predicted_mu)})", file=out)
    else:
        out.write(format_certificate(cert))
    return 0


def _cmd_search(args, out: TextIO) -> int:
    group = parse_group_spec(args.group)
    g = construct_graph(args.graph)
    opts = SearchOptions(mode=args.mode, vertex_order=args.order,
                         use_pruning=not args.naive, jobs=args.jobs)
    result = search_labelings(g, group, opts)
    if args.mode == "count":
        _emit(out, {"mode": "count", "count": result}, args.json, str(result))
        return 0 if result > 0 else _NEGATIVE
    labelings = result
    if args.json:
        print(json.dumps({
            "mode": args.mode,
            "count": len(labelings),
            "labelings": [{
                "mu": group.format_element(lab.magic_constant),
                "labels": [group.format_element(x) for x in lab.assignment],
            } for lab in labelings],
        }), file=out)
    else:
        for lab in labelings:
            print(f"mu: {group.format_element(lab.magic_constant)}", file=out)
            for v, x in enumerate(lab.assignment):
                print(f"v {v} {group.format_element(x)}", file=out)
            print("", file=out)
        print(f"count: {len(labelings)}", file=out)
    return 0 if labelings else _NEGATIVE


def _cmd_verify(args, out: TextIO) -> int:
    cert = load_certificate(args.cert)
    ok, detail, mu = verify_certificate(cert)
    grp = cert.group
    if ok:
        _emit(out, {"ok": True, "mu": grp.format_element(cert.mu),
                    "theorem": cert.theorem}, args.json,
              f"ok: mu {grp.format_element(cert.mu)}")
        return 0
    _emit(out, {"ok": False, "reason": detail}, args.json,
          f"rejected: {detail}")
    return _NEGATIVE


def _cmd_classify(args, out: TextIO) -> int:
    g = construct_graph(args.graph)
    opts = SearchOptions(use_pruning=not args.naive, jobs=args.jobs)
    result = classify_over_all_groups(g, opts)
    verdict = all(result.values())
    if args.json:
        print(json.dumps({
            "groups": {str(spec): value for spec, value in result.items()},
            "group_distance_magic": verdict,
        }), file=out)
    else:
        for spec, value in result.items():
            print(f"{spec}: {'yes' if value else 'no'}", file=out)
        print(f"group-distance-magic: {'yes' if verdict else 'no'}", file=out)
    return 0 if verdict else _NEGATIVE


def _cmd_obstructions(args, out: TextIO) -> int:
    g = construct_graph(args.graph)
    findings = all_obstructions(g)
    if args.json:
        print(json.dumps({"obstructions": [{
            "kind": o.kind, "witness": list(o.witness), "detail": o.detail,
        } for o in findings]}), file=out)
    else:
        if not findings:
            print("none", file=out)
        for o in findings:
            witness = " ".join(str(v) for v in o.witness)
            suffix = f" [{witness}]" if witness else ""
            print(f"{o.kind}{suffix}: {o.detail}", file=out)
    negative = any(o.kind != FORCED_IDENTITY for o in findings)
    return _NEGATIVE if negative else 0


def run(argv: list[str], out: Optional[TextIO] = None,
        err: Optional[TextIO] = None) -> int:
    """Parse argv and dispatch; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return _USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        if args.verb == "groups":
            return _cmd_groups(args, out)
        if args.verb == "construct":
            return _cmd_construct(args, out)
        if args.verb == "label":
            return _cmd_label(args, out, err)
        if args.verb == "search":
            return _cmd_search(args, out)
        if args.verb == "verify":
            return _cmd_verify(args, out)
        if args.verb == "classify":
            return _cmd_classify(args, out)
        if args.verb == "obstructions":
            return _cmd_obstructions(args, out)
        raise AssertionError(f"unhandled verb {args.verb}")
    except (GroupError, GraphError, LabelingError, ConstructionError,
            SolverError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return _USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
