"""Command-line interface.

Verbs: groups, construct, label, search, verify, classify, obstructions.
Exit codes: 0 success/affirmative, 1 verified negative (no labeling exists,
certificate rejected, obstruction found), 2 usage or precondition error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, TextIO

from .abelian import GroupError, enumerate_abelian_groups, parse_group_spec
from .constructors import (
    ConstructionError,
    ConstructionReport,
    auto_label,
    auto_label_bare,
    label_dir_balanced_pow2,
    label_dir_c4k2,
    label_lex_balanced_pow2,
    label_lex_c4k2,
    label_lex_even_degrees,
    label_matching_join_graph,
    label_star_graph,
    _label_kmn_parts,
    _pow2_host,
)
from .graphs import (
    GraphError,
    complete_bipartite_parts,
    construct_graph,
    find_twin_pairing,
)
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

_PRODUCT_METHODS = (
    "auto",
    "c4k2-lex",
    "c4k2-dir",
    "balanced-lex",
    "balanced-dir",
    "even-degrees-lex",
    "kmn-mixed-lex",
)
_BARE_METHODS = ("auto", "star", "matching-join")


def _build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--method", default="auto",
                   choices=sorted(set(_PRODUCT_METHODS + _BARE_METHODS)))
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


def _product_report(args, g, group) -> ConstructionReport:
    method = args.method
    own = method.rpartition("-")[2]
    if own in ("lex", "dir") and args.product not in (None, own):
        raise ConstructionError(
            f"method {method} builds a {own} product, but --product "
            f"{args.product} was given")
    h = construct_graph(args.h)
    pairing = find_twin_pairing(h)
    if method == "auto":
        return auto_label(g, h, args.product or "lex", group, pairing)
    if method in ("c4k2-lex", "c4k2-dir"):
        if h.n < 6 or h.n % 4 != 2:
            raise ConstructionError(
                f"method {method} needs H on 4k+2 vertices, got {h.n}")
        k = (h.n - 2) // 4
        fn = label_lex_c4k2 if method == "c4k2-lex" else label_dir_c4k2
        return fn(g, k, group, h=h, pairing=pairing)
    if method in ("balanced-lex", "balanced-dir"):
        if args.s is None:
            raise ConstructionError(f"method {method} requires --s")
        fn = (label_lex_balanced_pow2 if method == "balanced-lex"
              else label_dir_balanced_pow2)
        return fn(g, h, group, args.s, pairing)
    if method == "even-degrees-lex":
        return label_lex_even_degrees(g, h, group, pairing)
    if method == "kmn-mixed-lex":
        parts = complete_bipartite_parts(g)
        if parts is None:
            raise ConstructionError("G is not a complete bipartite graph")
        evens = [p for p in parts if len(p) % 2 == 0]
        odds = [p for p in parts if len(p) % 2 == 1]
        if not evens or not odds or len(evens[0]) < 2:
            raise ConstructionError(
                "G must be K(m,n) with m even (>= 2) and n odd; got part "
                f"sizes {sorted(len(p) for p in parts)}")
        k, r, pairing = _pow2_host(h, pairing)
        if r % 2 == 0:
            raise ConstructionError(
                f"H must be 2r-regular with r odd, got r = {r}")
        return _label_kmn_parts(g, evens[0], odds[0], h, pairing, group, k, r)
    raise ConstructionError(f"method {method} needs a bare graph, not --h")


def _cmd_label(args, out: TextIO, err: TextIO) -> int:
    group = parse_group_spec(args.group)
    g = construct_graph(args.graph)
    if args.h is not None:
        if args.method in ("star", "matching-join"):
            raise ConstructionError(
                f"method {args.method} takes no --h factor")
        report = _product_report(args, g, group)
        product = "dir" if "dir" in report.theorem else "lex"
        graph_expr = f"{product}({args.graph.strip()},{args.h.strip()})"
    else:
        if args.method == "star":
            report = label_star_graph(g, group)
        elif args.method == "matching-join":
            report = label_matching_join_graph(g, group)
        elif args.method == "auto":
            report = auto_label_bare(g, group)
        else:
            raise ConstructionError(f"method {args.method} requires --h")
        graph_expr = args.graph.strip()
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
    text = format_certificate(cert)
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
        out.write(text)
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
