"""Self-test of the benchmark's checkers: each planted wrong answer must be
rejected and each right one accepted. Needs no gdmagic.

    python3 perfbench/selftest.py

Prints one PASS or FAIL line per case and exits 1 if any case fails.
networkx, when installed, cross-checks the graph construction and the tree
classes.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import sys

import checks
from run import OUT, Checker

FAILURES = []
IDS = itertools.count()  # a fresh operation index per case, so no verdict is cached


def expect(name: str, condition: bool) -> None:
    print(f"{'PASS' if condition else 'FAIL'} {name}")
    if not condition:
        FAILURES.append(name)


def cert(graph: str, group: str, mu: str, labels) -> str:
    return "\n".join([f"graph: {graph}", f"group: {group}", f"mu: {mu}"]
                     + [f"v {v} {x}" for v, x in enumerate(labels)]) + "\n"


def brute_count(spec, factors) -> int:
    adj = checks.build(spec)
    return sum(1 for labels in itertools.permutations(checks.elements(factors))
               if checks.magic_constant(adj, factors, list(labels)) is not None)


def certificates() -> None:
    # lex(C(3),KmM(2)) is K(2,2,2); twin pairs summing to 1 in Z6 give mu 3 - 1 = 2
    spec = ("lex", ("C", 3), ("KmM", 2))
    good = ["(0)", "(1)", "(2)", "(5)", "(3)", "(4)"]
    ok = cert("lex(C(3),KmM(2))", "Z6", "(2)", good)
    expect("certificate: a magic certificate is accepted",
           checks.check_certificate(ok, spec, "Z6") is None)
    bad = good[:]
    bad[0], bad[2] = bad[2], bad[0]
    expect("certificate: two non-twin labels swapped",
           checks.check_certificate(cert("lex(C(3),KmM(2))", "Z6", "(2)", bad), spec, "Z6") is not None)
    expect("certificate: swap_labels breaks it too",
           checks.check_certificate(checks.swap_labels(ok, 0, 2), spec, "Z6") is not None)
    expect("certificate: wrong mu",
           checks.check_certificate(cert("lex(C(3),KmM(2))", "Z6", "(3)", good), spec, "Z6") is not None)
    dup = good[:-1] + ["(0)"]
    expect("certificate: labels not a bijection",
           checks.check_certificate(cert("lex(C(3),KmM(2))", "Z6", "(2)", dup), spec, "Z6") is not None)
    expect("certificate: graph line names the other product",
           checks.check_certificate(cert("dir(C(3),KmM(2))", "Z6", "(2)", good), spec, "Z6") is not None)
    expect("certificate: group line names another group",
           checks.check_certificate(cert("lex(C(3),KmM(2))", "Z2xZ3", "(0,2)",
                                         ["(0,0)"] * 6), spec, "Z6") is not None)
    # out-of-range coordinates that reduce to a magic labeling of C(4) over Z4
    reduced = cert("C(4)", "Z4", "(3)", ["(0)", "(1)", "(3)", "(2)"])
    expect("certificate: C(4) over Z4 in canonical form is accepted",
           checks.check_certificate(reduced, ("C", 4), "Z4") is None)
    expect("certificate: out-of-range coordinates are refused",
           checks.check_certificate(cert("C(4)", "Z4", "(-1)", ["(4)", "(5)", "(7)", "(6)"]),
                                    ("C", 4), "Z4") is not None)


def formulas() -> None:
    cases = [(("KmM", 6), (6,), checks.count_kmm(6, (6,))),
             (("KmM", 4), (2, 2), checks.count_kmm(4, (2, 2))),
             (("Kb", 2, 4), (6,), checks.count_kmn(2, 4, (6,))),
             (("Kb", 3, 3), (6,), checks.count_kmn(3, 3, (6,))),
             (("S", 3), (2, 2), checks.count_kmn(1, 3, (2, 2))),
             (("join", ("KmM", 6), ("K", 1)), (7,), checks.count_hub_kmm(6, (7,))),
             (("C", 6), (6,), checks.count_cycle(6))]
    for spec, factors, formula in cases:
        expect(f"formula: {checks.expr(spec)} over Z{'xZ'.join(map(str, factors))} "
               f"matches a permutation scan ({formula})", brute_count(spec, factors) == formula)
    # for a squarefree order s, Z_s is the only abelian group
    expect("formula: the K(m,n) verdict agrees with the subset test for squarefree m + n",
           all(checks.kmn_is_gdm(m, s - m) == (checks.count_kmn(m, s - m, (s,)) > 0)
               for s in (2, 3, 5, 6, 7, 10) for m in range(1, s // 2 + 1)))
    expect("formula: lex(C(4),K(2)) has closed twins, C(5) does not",
           checks.has_closed_twins(checks.build(("lex", ("C", 4), ("K", 2))))
           and not checks.has_closed_twins(checks.build(("C", 5))))
    expect("formula: abelian group counts 1, 1, 2, 3, 5 for orders 6, 7, 4, 8, 16",
           [checks.abelian_group_count(n) for n in (6, 7, 4, 8, 16)] == [1, 1, 2, 3, 5])


def search(checker: Checker) -> None:
    def verdict(spec, group, mode, answer, rc, data):
        op = {"check": {"type": "search", "spec": spec, "group": group, "mode": mode,
                        "answer": answer}}
        return checker(next(IDS), op, {"rc": rc, "out": json.dumps(data), "err": ""})

    kmm = (("KmM", 6), "Z6", "count", ("kmm", 6))
    expect("search: the right count is accepted", verdict(*kmm, 0, {"count": 144}) == "ok")
    expect("search: a wrong count", verdict(*kmm, 0, {"count": 143}) != "ok")
    expect("search: a count that breaks the symmetry divisibility",
           "multiple" in verdict(*kmm, 0, {"count": 150}))
    none = (("C", 9), "Z3xZ3", "first", ("none",))
    expect("search: no labeling where none exists is accepted",
           verdict(*none, 1, {"count": 0, "labelings": []}) == "ok")
    expect("search: a labeling returned where none exists",
           verdict(*none, 0, {"count": 1, "labelings": [{"mu": "(0,0)", "labels": []}]}) != "ok")
    some = (("C", 4), "Z4", "first", ("some",))
    labels = ["(0)", "(1)", "(3)", "(2)"]
    expect("search: a magic labeling is accepted",
           verdict(*some, 0, {"count": 1, "labelings": [{"mu": "(3)", "labels": labels}]}) == "ok")
    expect("search: a labeling that is not magic",
           verdict(*some, 0, {"count": 1, "labelings": [
               {"mu": "(3)", "labels": ["(0)", "(1)", "(2)", "(3)"]}]}) != "ok")
    expect("search: a labeling that is not a bijection",
           verdict(*some, 0, {"count": 1, "labelings": [
               {"mu": "(2)", "labels": ["(1)", "(1)", "(1)", "(1)"]}]}) != "ok")


def classify(checker: Checker) -> None:
    def verdict(spec, data, rc):
        op = {"check": {"type": "classify", "spec": spec}}
        return checker(next(IDS), op, {"rc": rc, "out": json.dumps(data), "err": ""})

    right = {"groups": {"Z8": True, "Z4xZ2": True, "Z2xZ2xZ2": True}, "group_distance_magic": True}
    expect("classify: K(3,5) yes over all three groups is accepted",
           verdict(("Kb", 3, 5), right, 0) == "ok")
    flipped = {"groups": {"Z8": True, "Z4xZ2": False, "Z2xZ2xZ2": True}, "group_distance_magic": False}
    expect("classify: one group flipped", verdict(("Kb", 3, 5), flipped, 1) != "ok")
    short = {"groups": {"Z8": True, "Z4xZ2": True}, "group_distance_magic": True}
    expect("classify: a group missing", verdict(("Kb", 3, 5), short, 0) != "ok")
    expect("classify: C(8) answered yes",
           verdict(("C", 8), {"groups": {"Z8": True, "Z4xZ2": True, "Z2xZ2xZ2": True},
                              "group_distance_magic": True}, 0) != "ok")


def trees(checker: Checker) -> None:
    try:
        import networkx as nx
    except ImportError:
        print("SKIP trees: networkx is not installed")
        return
    n = 7
    data = []
    for t in nx.nonisomorphic_trees(n):
        adj = [set(t[v]) for v in range(n)]
        gdm = checks.tree_is_gdm(adj)
        found = checks.blocking_obstructions(adj)
        data.append({"edges": sorted(tuple(sorted(e)) for e in t.edges()),
                     "groups": {"Z7": gdm},
                     "obstructions": [[k, list(w)] for k, w in found.items()]})

    def verdict(rows):
        op = {"check": {"type": "trees", "sizes": [n]}}
        return checker(next(IDS), op, {"rc": 0, "out": json.dumps([rows]), "err": ""})

    expect("trees: the 11 trees on 7 vertices are accepted", verdict(data) == "ok")
    expect("trees: one tree missing", verdict(data[:-1]) != "ok")
    relabelled = [[6 - u, 6 - v] for u, v in data[0]["edges"]]
    expect("trees: two isomorphic trees",
           verdict(data[:-1] + [dict(data[0], edges=relabelled)]) != "ok")
    star = next(k for k, row in enumerate(data) if row["groups"]["Z7"])
    flipped = [dict(row, groups={"Z7": not row["groups"]["Z7"]}) if k == star else row
               for k, row in enumerate(data)]
    expect("trees: the star K(1,6) classified no", verdict(flipped) != "ok")
    path = next(k for k, row in enumerate(data) if any(o[0] == "tree-shape" for o in row["obstructions"]))
    missing = [dict(row, obstructions=[o for o in row["obstructions"] if o[0] != "tree-shape"])
               if k == path else row for k, row in enumerate(data)]
    expect("trees: a tree-shape obstruction missing", verdict(missing) != "ok")


def obstructions(checker: Checker) -> None:
    def verdict(spec, found, rc):
        op = {"check": {"type": "obstructions", "spec": spec}}
        return checker(next(IDS), op, {"rc": rc, "out": json.dumps({"obstructions": found}), "err": ""})

    labelled = ("lex", ("C", 5), ("KmM", 4))
    expect("obstructions: none on a labelled product is accepted", verdict(labelled, [], 0) == "ok")
    expect("obstructions: a spurious obstruction on a labelled product",
           verdict(labelled, [{"kind": "shared-neighborhood", "witness": [0, 1]}], 1) != "ok")
    two = ("join", ("K", 2), ("C", 6))
    right = [{"kind": "two-universal", "witness": [0, 1]},
             {"kind": "shared-neighborhood", "witness": [0, 1]}]
    expect("obstructions: two universal vertices are accepted", verdict(two, right, 1) == "ok")
    expect("obstructions: a wrong witness",
           verdict(two, [right[0], {"kind": "shared-neighborhood", "witness": [2, 4]}], 1) != "ok")
    expect("obstructions: an obstruction missing", verdict(two, right[1:], 1) != "ok")
    path = [{"kind": "shared-neighborhood", "witness": [0, 9]}, {"kind": "tree-shape", "witness": []}]
    expect("obstructions: a long path is accepted", verdict(("P", 10), path, 1) == "ok")
    expect("obstructions: the wrong exit code", verdict(("P", 10), path, 0) != "ok")


def routing(checker: Checker, tmp: str) -> None:
    spec = ("dir", ("C", 3), ("KmM", 2))
    path = os.path.join(tmp, "routing.txt")

    def verdict(text, rc, err):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        op = {"check": {"type": "routing", "spec": spec, "group": "Z6", "cert": path,
                        "method": "balanced-lex", "product": "dir"}}
        return checker(next(IDS), op, {"rc": rc, "out": "", "err": err})

    good = ["(0)", "(1)", "(2)", "(5)", "(3)", "(4)"]
    expect("routing: a certificate for the other product counts as failed",
           verdict(cert("lex(C(3),KmM(2))", "Z6", "(2)", good), 0, "") == "failed")
    expect("routing: exit 2 naming the conflict passes",
           verdict("", 2, "error: method balanced-lex builds lex products, not dir") == "ok")
    expect("routing: exit 2 with an unrelated message counts as failed",
           verdict("", 2, "error: group Z6 has no Z8 direct factor") == "failed")


def graph_construction() -> None:
    try:
        import networkx as nx
    except ImportError:
        print("SKIP graph construction: networkx is not installed")
        return

    def as_nx(spec):
        kind = spec[0]
        if kind == "C":
            return nx.cycle_graph(spec[1])
        if kind == "K":
            return nx.complete_graph(spec[1])
        if kind == "Kb":
            return nx.complete_bipartite_graph(spec[1], spec[2])
        if kind == "KmM":
            g = nx.complete_graph(spec[1])
            g.remove_edges_from((2 * i, 2 * i + 1) for i in range(spec[1] // 2))
            return g
        if kind == "pow":
            return nx.power(as_nx(spec[1]), spec[2])
        g, h = as_nx(spec[1]), as_nx(spec[2])
        prod = nx.lexicographic_product(g, h) if kind == "lex" else nx.tensor_product(g, h)
        return nx.relabel_nodes(prod, {(i, j): i * h.number_of_nodes() + j for i, j in prod})

    for spec in [("lex", ("C", 5), ("KmM", 8)), ("dir", ("Kb", 2, 3), ("KmM", 6)),
                 ("lex", ("pow", ("C", 9), 2), ("KmM", 4)), ("dir", ("K", 4), ("KmM", 16))]:
        g = as_nx(spec)
        adj = checks.build(spec)
        expect(f"graphs: {checks.expr(spec)} matches networkx",
               len(adj) == g.number_of_nodes() and all(adj[v] == set(g[v]) for v in range(len(adj))))
    expect("graphs: tree classes match A000055 up to 10 vertices",
           all(len({checks.tree_canon([set(t[v]) for v in range(n)])
                    for t in nx.nonisomorphic_trees(n)}) == checks.A000055[n]
               for n in range(2, 11)))


def main() -> int:
    tmp = os.path.join(OUT, f"selftest-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        checker = Checker([])
        certificates()
        formulas()
        search(checker)
        classify(checker)
        trees(checker)
        obstructions(checker)
        routing(checker, tmp)
        graph_construction()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
