"""The benchmark's workloads: fixed lists of operations, and the only
random choices, which the seed fixes.

An operation is a JSON-able dict. ``kind`` is "cli" (``argv`` for
gdmagic.cli.run) or "trees" (the tree sweep over ``sizes``, run through the
library API). ``check`` says how run.py judges the output, and
``unit`` groups operations that must run in order within a round.
An operation with ``trace_only`` runs only in traced runs (``--trace 1``).
"""

from __future__ import annotations

import os
import random

from checks import expr

WORKLOADS = ("certify", "search", "decide")

# (G, H, product, group): product certificates from 72 to 4000 vertices over
# cyclic and non-cyclic groups, through the 2^k routes (H = KmM(8), KmM(16))
# and the 4k+2 route (H = KmM(6)).
CERTIFY = (
    (("C", 500), ("KmM", 8), "lex", "Z8xZ500"),
    (("K", 20), ("KmM", 16), "lex", "Z16xZ20"),
    (("C", 128), ("KmM", 16), "dir", "Z16xZ128"),
    (("Kb", 20, 21), ("KmM", 8), "lex", "Z8xZ41"),
    (("pow", ("C", 200), 2), ("KmM", 8), "lex", "Z2xZ8xZ100"),
    (("C", 300), ("KmM", 6), "dir", "Z6xZ300"),
    (("C", 50), ("KmM", 6), "lex", "Z6xZ50"),
    (("K", 12), ("KmM", 6), "lex", "Z6xZ12"),
    (("C", 100), ("KmM", 8), "dir", "Z8xZ100"),
)

# Explicit methods that name the other product. They fail every time today
# (the CLI writes a certificate for the method's product, not the requested
# one), so they are counted as failed operations.
ROUTING = (
    ("dir", "balanced-lex"),
    ("lex", "balanced-dir"),
)

# (graph, group, mode, naive, jobs, answer): the answer names the argument
# in checks.py that fixes the expected result. The --jobs 2 count runs only
# in traced runs: its time depends on whether the host's other vCPU is free
# (370-500 ms when it is, 670-1110 ms when it is not, against about 745 ms
# for --jobs 1), so it would make pass_s measure the host's scheduler.
SEARCH = (
    (("KmM", 6), "Z6", "count", False, 1, ("kmm", 6)),
    (("Kb", 2, 6), "Z8", "count", False, 1, ("kmn", 2, 6)),
    (("S", 7), "Z2xZ2xZ2", "count", False, 1, ("kmn", 1, 7)),
    (("join", ("KmM", 6), ("K", 1)), "Z7", "count", False, 1, ("hub", 6)),
    (("C", 9), "Z3xZ3", "first", False, 1, ("none",)),
    (("C", 12), "Z12", "first", False, 1, ("none",)),
    (("lex", ("C", 4), ("K", 2)), "Z8", "first", False, 1, ("none",)),
    (("join", ("KmM", 8), ("K", 1)), "Z9", "first", False, 1, ("some",)),
    (("pow", ("C", 12), 2), "Z12", "first", False, 1, ("some",)),
    (("C", 8), "Z8", "count", True, 1, ("cycle", 8)),
    (("C", 8), "Z8", "count", False, 1, ("cycle", 8)),
    (("S", 7), "Z2xZ2xZ2", "count", False, 2, ("kmn", 1, 7)),
)

# classify on K(m,n) for m + n <= 9, then on named graphs with a known answer.
# K(2,7) is left out: at 3.6 s it alone took 40% of a pass, which left too
# few repetitions in a run for steady figures.
CLASSIFY = tuple(("Kb", m, s - m) for s in range(2, 10) for m in range(1, s // 2 + 1)
                 if (m, s - m) != (2, 7)) + (
    ("C", 8), ("C", 9), ("P", 8), ("KmM", 8), ("join", ("KmM", 8), ("K", 1)), ("S", 7),
)

# obstructions on large graphs with no obstruction (the two products are of
# the families the certify workload labels), then on graphs built to hold
# one: two universal vertices, and a long path.
OBSTRUCTIONS = (
    ("lex", ("C", 100), ("KmM", 8)),
    ("lex", ("Kb", 20, 21), ("KmM", 8)),
    ("pow", ("C", 600), 4),
    ("join", ("K", 2), ("C", 398)),
    ("P", 400),
)

TREE_SIZES = range(2, 8)


def _order(spec) -> int:
    kind = spec[0]
    if kind in ("C", "K", "P", "KmM"):
        return spec[1]
    if kind == "S":
        return spec[1] + 1
    if kind == "Kb":
        return spec[1] + spec[2]
    if kind == "pow":
        return _order(spec[1])
    if kind == "join":
        return _order(spec[1]) + _order(spec[2])
    return _order(spec[1]) * _order(spec[2])


def _certify(rng: random.Random, outdir: str) -> list[dict]:
    ops = []
    for k, (g, h, product, group) in enumerate(CERTIFY):
        cert = os.path.join(outdir, f"cert-{k}.txt")
        swapped = os.path.join(outdir, f"cert-{k}-swapped.txt")
        spec = (product, g, h)
        gn, hn = _order(g), _order(h)
        # Two vertices in consecutive blocks near the middle: they are not
        # twins, and a rejecting verifier has to scan about half the weights.
        i = gn // 2 + rng.randrange(-max(1, gn // 20), max(1, gn // 20))
        x, y = i * hn + rng.randrange(hn), (i + 1) * hn + rng.randrange(hn)
        unit = f"cert-{k}"
        ops.append({"id": f"label {expr(spec)} {group}", "kind": "cli", "unit": unit,
                    "argv": ["label", "--graph", expr(g), "--h", expr(h), "--product", product,
                             "--group", group, "--out", cert],
                    "check": {"type": "label", "spec": spec, "group": group, "cert": cert}})
        ops.append({"id": f"verify {expr(spec)} {group}", "kind": "cli", "unit": unit,
                    "argv": ["verify", "--cert", cert],
                    "check": {"type": "verify", "spec": spec, "group": group, "cert": cert}})
        ops.append({"id": f"reject {expr(spec)} {group}", "kind": "cli", "unit": unit,
                    "argv": ["verify", "--cert", swapped],
                    "check": {"type": "reject", "spec": spec, "group": group, "cert": cert,
                              "swapped": swapped, "pair": [x, y]}})
    for product, method in ROUTING:
        g, h, group = ("C", 100), ("KmM", 8), "Z8xZ100"
        cert = os.path.join(outdir, f"cert-{product}-{method}.txt")
        ops.append({"id": f"label --product {product} --method {method}", "kind": "cli",
                    "unit": f"routing-{product}",
                    "argv": ["label", "--graph", expr(g), "--h", expr(h), "--product", product,
                             "--method", method, "--s", "3", "--group", group, "--out", cert],
                    "check": {"type": "routing", "spec": (product, g, h), "group": group,
                              "cert": cert, "method": method, "product": product}})
    return ops


def _search() -> list[dict]:
    ops = []
    for spec, group, mode, naive, jobs, answer in SEARCH:
        argv = ["search", "--graph", expr(spec), "--group", group, "--mode", mode, "--json"]
        if naive:
            argv.append("--naive")
        if jobs > 1:
            argv += ["--jobs", str(jobs)]
        ops.append({"id": " ".join(argv[1:]), "kind": "cli", "unit": " ".join(argv), "argv": argv,
                    "trace_only": jobs > 1,
                    "check": {"type": "search", "spec": spec, "group": group, "mode": mode,
                              "answer": answer}})
    return ops


def _decide() -> list[dict]:
    ops = [{"id": "tree sweep", "kind": "trees", "unit": "tree sweep", "sizes": list(TREE_SIZES),
            "check": {"type": "trees", "sizes": list(TREE_SIZES)}}]
    for spec in CLASSIFY:
        argv = ["classify", "--graph", expr(spec), "--json"]
        ops.append({"id": " ".join(argv[:3]), "kind": "cli", "unit": " ".join(argv), "argv": argv,
                    "check": {"type": "classify", "spec": spec}})
    for spec in OBSTRUCTIONS:
        argv = ["obstructions", "--graph", expr(spec), "--json"]
        ops.append({"id": " ".join(argv[:3]), "kind": "cli", "unit": " ".join(argv), "argv": argv,
                    "check": {"type": "obstructions", "spec": spec}})
    return ops


def build(workload: str, seed: int, outdir: str) -> list[dict]:
    """The operations of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "certify":
        return _certify(rng, outdir)
    if workload == "search":
        return _search()
    if workload == "decide":
        return _decide()
    raise ValueError(f"unknown workload {workload!r}")


def round_order(ops: list[dict], seed: int, round_no: int, traced_run: bool) -> list[int]:
    """Operation indices for one round: units shuffled by (seed, round),
    operations inside a unit kept in list order. Trace-only operations are
    left out of untraced runs."""
    units: dict[str, list[int]] = {}
    for k, op in enumerate(ops):
        if op.get("trace_only") and not traced_run:
            continue
        units.setdefault(op["unit"], []).append(k)
    keys = list(units)
    random.Random(f"order:{seed}:{round_no}").shuffle(keys)
    return [k for key in keys for k in units[key]]
