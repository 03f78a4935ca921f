"""Command-line interface.

Verbs: groups, construct, label, search, verify, classify, obstructions.
Exit codes: 0 success/affirmative, 1 verified negative (no labeling exists,
certificate rejected, obstruction found), 2 usage or precondition error.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Optional, TextIO

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
    check_graph_line,
    format_certificate,
    load_certificate,
    save_certificate,
    verify_certificate,
)
from .solver import (
    SearchOptions,
    SolverError,
    classify_over_all_groups,
    search_labelings,
)

if TYPE_CHECKING:
    import argparse

_USAGE_ERROR = 2
_NEGATIVE = 1


def _emit(args, out: TextIO, payload: Callable[[], dict],
          text: Callable[[], str]) -> None:
    """Print the verb's answer: ``payload()`` as JSON under --json, else
    ``text()``. Only the one printed is built."""
    print(json.dumps(payload()) if args.json else text(), file=out)


def _cmd_groups(args, out: TextIO, err: TextIO) -> int:
    names = [str(s) for s in enumerate_abelian_groups(args.order)]
    _emit(args, out, lambda: {"order": args.order, "groups": names},
          lambda: "\n".join(names))
    return 0


def _cmd_construct(args, out: TextIO, err: TextIO) -> int:
    g = construct_graph(args.expr)
    edges = g.edges()
    _emit(args, out,
          lambda: {"vertices": g.n, "degrees": list(g.degrees),
                   "edges": [list(e) for e in edges]},
          lambda: "\n".join([f"vertices: {g.n}",
                              "degrees: " + " ".join(map(str, g.degrees)),
                              "edges:", *(f"{u} {v}" for u, v in edges)]))
    return 0


def _cmd_label(args, out: TextIO, err: TextIO) -> int:
    group = parse_group_spec(args.group)
    g = construct_graph(args.graph)
    product = method_product(args.method, args.h is not None, args.product)
    h = None if product is None else construct_graph(args.h)
    graph_expr = (args.graph.strip() if h is None
                  else f"{product}({args.graph.strip()},{args.h.strip()})")
    check_graph_line(graph_expr)  # before labeling, under --json too
    report = label_with_method(args.method, g, h, product, group, args.s)
    if report is None:
        message = ("no labeling exists: no center label x with 2x equal to "
                   "the sum of all group elements")
        _emit(args, out, lambda: {"ok": False, "reason": message},
              lambda: message)
        return _NEGATIVE
    # label_with_method does not verify: this check of the certificate
    # about to be written is the one pass over its labels and weights, and
    # the labeler's columns go through it and into the output as columns
    cert = Certificate.from_columns(graph_expr, group, report.predicted_mu,
                                    report.columns, report.theorem)
    ok, detail, _ = verify_certificate(cert)
    if not ok:  # never expected: a construction that breaks its theorem
        print(f"internal error: emitted certificate failed: {detail}",
              file=err)
        return _USAGE_ERROR
    if args.out:
        save_certificate(cert, args.out)
    mu = group.format_element(report.predicted_mu)
    _emit(args, out,
          lambda: {"ok": True, "theorem": report.theorem, "graph": graph_expr,
                   "group": str(group), "mu": mu,
                   "labels": group.format_columns(report.columns),
                   "parameters": report.parameters, "out": args.out},
          lambda: (f"wrote certificate to {args.out} (theorem "
                   f"{report.theorem}, mu {mu})" if args.out
                   else format_certificate(cert).removesuffix("\n")))
    return 0


def _cmd_search(args, out: TextIO, err: TextIO) -> int:
    group = parse_group_spec(args.group)
    g = construct_graph(args.graph)
    opts = SearchOptions(mode=args.mode, vertex_order=args.order,
                         use_pruning=not args.naive, jobs=args.jobs)
    result = search_labelings(g, group, opts)
    if args.mode == "count":
        _emit(args, out, lambda: {"mode": "count", "count": result},
              lambda: str(result))
        return 0 if result > 0 else _NEGATIVE
    fmt = group.format_element

    def text() -> str:
        lines = []
        for lab in result:
            lines.append(f"mu: {fmt(lab.magic_constant)}")
            lines += group.format_elements(lab.assignment, "v %d ")
            lines.append("")
        return "\n".join(lines + [f"count: {len(result)}"])

    _emit(args, out,
          lambda: {"mode": args.mode, "count": len(result), "labelings": [
              {"mu": fmt(lab.magic_constant),
               "labels": group.format_elements(lab.assignment)}
              for lab in result]},
          text)
    return 0 if result else _NEGATIVE


def _cmd_verify(args, out: TextIO, err: TextIO) -> int:
    cert = load_certificate(args.cert)
    ok, detail, _ = verify_certificate(cert)
    if ok:
        mu = cert.group.format_element(cert.mu)
        _emit(args, out,
              lambda: {"ok": True, "mu": mu, "theorem": cert.theorem},
              lambda: f"ok: mu {mu}")
        return 0
    _emit(args, out, lambda: {"ok": False, "reason": detail},
          lambda: f"rejected: {detail}")
    return _NEGATIVE


def _cmd_classify(args, out: TextIO, err: TextIO) -> int:
    g = construct_graph(args.graph)
    opts = SearchOptions(use_pruning=not args.naive, jobs=args.jobs)
    result = classify_over_all_groups(g, opts)
    verdict = all(result.values())

    def yes(value: bool) -> str:
        return "yes" if value else "no"

    _emit(args, out,
          lambda: {"groups": {str(spec): v for spec, v in result.items()},
                   "group_distance_magic": verdict},
          lambda: "\n".join([
              *(f"{spec}: {yes(v)}" for spec, v in result.items()),
              f"group-distance-magic: {yes(verdict)}"]))
    return 0 if verdict else _NEGATIVE


def _cmd_obstructions(args, out: TextIO, err: TextIO) -> int:
    findings = all_obstructions(construct_graph(args.graph))

    def line(o) -> str:
        witness = " ".join(str(v) for v in o.witness)
        suffix = f" [{witness}]" if witness else ""
        return f"{o.kind}{suffix}: {o.detail}"

    _emit(args, out,
          lambda: {"obstructions": [
              {"kind": o.kind, "witness": list(o.witness), "detail": o.detail}
              for o in findings]},
          lambda: "\n".join(map(line, findings)) if findings else "none")
    return _NEGATIVE if any(o.blocks for o in findings) else 0


# The options of each verb as (flag, add_argument keywords) rows, in the
# order its usage line lists them; a name without a leading "-" is a
# positional. _build_parser hands every row to argparse and _read_argv
# reads the same rows, so each option is declared once.
_JSON = ("--json", {"action": "store_true"})  # last in every usage line
_GRAPH = ("--graph", {"required": True})
_JOBS = ("--jobs", {"type": int, "default": 1})

# verb -> (help line, option rows, handler), in the order the help lists them
_VERBS = {
    "groups": ("list abelian groups of a given order",
               (("order", {"type": int}), _JSON), _cmd_groups),
    "construct": ("build a graph from an expression",
                  (("expr", {}), _JSON), _cmd_construct),
    "label": ("run a constructive labeler", (
        ("--graph", {"required": True, "help": "graph expression"}),
        ("--h", {"help": "second product factor expression"}),
        ("--product", {"choices": ("lex", "dir"),
                       "help": "product of --graph and --h (default: the "
                               "method's own product, lex for auto)"}),
        ("--group", {"required": True, "help": "group spec, e.g. Z4xZ3"}),
        ("--method", {"default": "auto", "choices": tuple(METHODS)}),
        ("--s", {"type": int, "help": "cyclic 2-power exponent for the "
                                      "balanced-* methods"}),
        ("--out", {"help": "write the certificate to this file"}),
        _JSON), _cmd_label),
    "search": ("exhaustively search for labelings", (
        _GRAPH,
        ("--group", {"required": True}),
        ("--mode", {"choices": ("first", "all", "count"),
                    "default": "first"}),
        ("--naive", {"action": "store_true", "help": "use the "
                     "permutation-scan oracle instead of pruning"}),
        ("--order", {"choices": ("degree_desc", "input"),
                     "default": "degree_desc"}),
        _JOBS, _JSON), _cmd_search),
    "verify": ("check a certificate file",
               (("--cert", {"required": True}), _JSON), _cmd_verify),
    "classify": ("test all groups of matching order",
                 (_GRAPH, ("--naive", {"action": "store_true"}), _JOBS,
                  _JSON), _cmd_classify),
    "obstructions": ("run the structural checks", (_GRAPH, _JSON),
                     _cmd_obstructions),
}


@functools.cache
def _build_parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of one verb, or of all verbs when ``verb`` is None; each
    is built on its first use in a process, then reused. Only help, usage
    errors and the argv forms that _read_argv leaves alone need one, so
    argparse is imported here.

    A one-verb parser names every verb in its usage line, so that the
    messages it prints are those of the full parser.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="gdmagic",
        description="Construct, search for, and verify distance magic "
                    "labelings of graphs over finite abelian groups.")
    # the metavar only where one verb is built: the full parser's errors
    # about the verb itself name it by its dest, "verb"
    sub = parser.add_subparsers(
        dest="verb", required=True,
        metavar=None if verb is None else "{" + ",".join(_VERBS) + "}")
    for name, (help_, rows, handler) in _VERBS.items():
        if verb is None or name == verb:
            p = sub.add_parser(name, help=help_)
            for flag, kwargs in rows:
                p.add_argument(flag, **kwargs)
            p.set_defaults(handler=handler)
    return parser


def _read_argv(argv: list[str]) -> Optional[SimpleNamespace]:
    """The namespace parse_args would give for a well-formed argv, read
    from the verb's rows without argparse; None for anything else.

    Well-formed: the verb, then its exact flags, each at most once; a
    store-true flag bare, every other flag followed by one value that does
    not start with "-"; positionals that do not start with "-". Values are
    converted with the row's type and checked against its choices. Help,
    usage errors, abbreviations, "--flag=value", repeats and values that
    start with "-" are all left to argparse, the one source of messages.
    """
    if not argv or argv[0] not in _VERBS:
        return None
    _, rows, handler = _VERBS[argv[0]]
    flags = {flag: kwargs for flag, kwargs in rows if flag[0] == "-"}
    positionals = iter([flag for flag, _ in rows if flag[0] != "-"])
    given: dict[str, object] = {}
    words = iter(argv[1:])
    for word in words:
        if not word.startswith("-"):
            name = next(positionals, None)
            if name is None:
                return None
            given[name] = word
        elif word in given or word not in flags:
            return None
        elif flags[word].get("action") == "store_true":
            given[word] = True
        else:
            value = next(words, "-")  # none left: argparse's error
            if value.startswith("-"):
                return None
            given[word] = value
    args = SimpleNamespace(verb=argv[0], handler=handler)
    for flag, kwargs in rows:
        bare = kwargs.get("action") == "store_true"
        if flag not in given:
            if kwargs.get("required") or flag[0] != "-":
                return None
            value = kwargs.get("default", False if bare else None)
        elif bare:
            value = True
        else:
            try:
                value = kwargs.get("type", str)(given[flag])
            except ValueError:
                return None
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
        setattr(args, flag.lstrip("-"), value)
    return args


def run(argv: list[str], out: Optional[TextIO] = None,
        err: Optional[TextIO] = None) -> int:
    """Read argv, with argparse only where _read_argv returns None, and
    run the verb's handler; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = _read_argv(argv)
    if args is None:
        parser = _build_parser(argv[0] if argv and argv[0] in _VERBS
                               else None)
        try:
            with (contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                args = parser.parse_args(argv)
        except SystemExit as exc:
            return _USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.handler(args, out, err)
    except (GroupError, GraphError, LabelingError, ConstructionError,
            SolverError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return _USAGE_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
