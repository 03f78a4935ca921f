"""gdmagic benchmark.

    python3 perfbench/run.py --workload certify|search|decide --seed N \
        --seconds S --trace 0|1

Runs whole rounds of the workload's operations for about S seconds, each
operation in a child forked from a fresh gdmagic process (see server.py),
checks every output with checks.py, and prints one JSON object as the last
line of stdout. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced rounds and reports the
per-layer metrics, writing spans and counters under perfbench/out/.

End-to-end times are scaled to a host on which server.calibrate() takes
CAL_REF_S: each operation's time is divided by the mean of the calibration
runs just before and just after it. The raw figures go to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)  # names and units of the metrics

MIN_ROUNDS = 3          # untraced rounds per run, whatever --seconds says
MIN_TRACE_ROUNDS = 2    # one untraced and one traced round
EXTRA_PROBES = 2        # server start-ups timed before the first round's
CAL_REF_S = 0.040       # server.calibrate() on a 2 vCPU Xeon at its usual speed


# --- the fork server -------------------------------------------------------------

class Server:
    """One fork server process; its start-up time is the workload's set-up."""

    def __init__(self, workload: str, seed: int, outdir: str):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"), workload, str(seed), outdir, SRC],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - start
        if not line:
            self.close()
            raise RuntimeError("fork server did not start")
        self.import_s = json.loads(line)["import_s"]

    def run(self, index: int, trace: bool) -> dict:
        self.proc.stdin.write(json.dumps({"op": index, "trace": trace}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("fork server stopped")
        return json.loads(line)

    def calibrate(self) -> float:
        return self.run("calibrate", False)["elapsed"]

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# --- checking ----------------------------------------------------------------------

class Checker:
    """Judges each output: "ok", "failed" (the known routing fault) or a
    reason it is wrong. Verdicts are cached by output, since the same output
    gets the same verdict."""

    def __init__(self, ops: list[dict]):
        self.ops = ops
        self.graphs: dict[str, list[set[int]]] = {}
        self.verdicts: dict[tuple, str] = {}

    def adj(self, spec):
        key = checks.expr(spec)
        if key not in self.graphs:
            self.graphs[key] = checks.build(spec)
        return self.graphs[key]

    def __call__(self, index: int, op: dict, result: dict) -> str:
        check = op["check"]
        cert_text = ""
        path = check.get("swapped" if check["type"] == "reject" else "cert")
        if path and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                cert_text = fh.read()
        key = (index, result["rc"], result["out"], result["err"],
               hashlib.sha1(cert_text.encode()).hexdigest())
        if key not in self.verdicts:
            try:
                self.verdicts[key] = getattr(self, "_" + check["type"])(check, result, cert_text)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                self.verdicts[key] = f"unreadable output: {exc!r}"
        verdict = self.verdicts[key]
        if check["type"] == "label" and verdict == "ok":
            self._write_swapped(cert_text, op)
        return verdict

    def _label(self, check, result, text):
        if result["rc"] != 0:
            return f"label exited {result['rc']}: {result['err'].strip()}"
        return checks.check_certificate(text, check["spec"], check["group"],
                                        self.adj(check["spec"])) or "ok"

    def _write_swapped(self, text, op):
        reject = next(o["check"] for o in self.ops if o["unit"] == op["unit"]
                      and o["check"]["type"] == "reject")
        x, y = reject["pair"]
        swapped = checks.swap_labels(text, x, y)
        with open(reject["swapped"], "w", encoding="utf-8") as fh:
            fh.write(swapped)

    def _verify(self, check, result, text):
        if result["rc"] != 0 or not result["out"].startswith("ok: mu "):
            return f"verify of a checked certificate gave {result['rc']}: {result['out'].strip()}"
        return "ok"

    def _reject(self, check, result, text):
        x, y = check["pair"]
        adj = self.adj(check["spec"])
        if adj[x] - {y} == adj[y] - {x}:
            return f"vertices {x} and {y} are twins"
        factors = checks.parse_group(check["group"])
        _, _, _, labels = checks.parse_certificate(text, factors)
        if checks.magic_constant(adj, factors, labels) is not None:
            return "the swapped labeling is still magic"
        if result["rc"] != 1 or not result["out"].startswith("rejected: "):
            return f"verify accepted a broken certificate ({result['rc']}): {result['out'].strip()}"
        return "ok"

    def _routing(self, check, result, text):
        if result["rc"] == 0 and checks.check_certificate(
                text, check["spec"], check["group"], self.adj(check["spec"])) is None:
            return "ok"
        if result["rc"] == 2 and check["method"] in result["err"] and check["product"] in result["err"]:
            return "ok"
        return "failed"

    def _search(self, check, result, text):
        data = json.loads(result["out"])
        spec, answer = check["spec"], check["answer"]
        factors = checks.parse_group(check["group"])
        adj = self.adj(spec)
        if check["mode"] == "count":
            kind, *params = answer
            expected = {"kmm": checks.count_kmm, "kmn": checks.count_kmn,
                        "hub": checks.count_hub_kmm}.get(kind)
            want = checks.count_cycle(*params) if kind == "cycle" else expected(*params, factors)
            got = data["count"]
            if checks.is_regular(adj) and got % checks.regular_count_divisor(len(adj), factors):
                return f"count {got} on a regular graph is not a multiple of the symmetry group"
            if got != want or result["rc"] != (0 if want else 1):
                return f"count {got} (exit {result['rc']}), expected {want}"
            return "ok"
        if answer == ("none",):
            proved = checks.has_closed_twins(adj) or (spec[0] == "C" and spec[1] != 4)
            if not proved:
                return "no short proof that the instance has no labeling"
            if result["rc"] != 1 or data["labelings"]:
                return f"found a labeling where none exists (exit {result['rc']})"
            return "ok"
        if result["rc"] != 0 or len(data["labelings"]) != 1:
            return f"expected one labeling, got {len(data['labelings'])} (exit {result['rc']})"
        found = data["labelings"][0]
        labels = [checks.parse_element(factors, x) for x in found["labels"]]
        mu = checks.parse_element(factors, found["mu"])
        if None in labels or mu is None or checks.magic_constant(adj, factors, labels) != mu:
            return "returned labeling is not magic with the reported mu"
        return "ok"

    def _expected_classify(self, spec, factors):
        n = len(self.adj(spec))
        if spec[0] in ("Kb", "S"):
            m, k = (spec[1], spec[2]) if spec[0] == "Kb" else (1, spec[1])
            return checks.count_kmn(m, k, factors) > 0
        if spec[0] == "C":
            return checks.count_cycle(spec[1]) > 0
        if spec[0] == "P":
            return checks.tree_is_gdm(self.adj(spec))
        if spec[0] == "KmM":
            return checks.count_kmm(n, factors) > 0
        if spec[0] == "join" and spec[1][0] == "KmM" and spec[2] == ("K", 1):
            return checks.count_hub_kmm(spec[1][1], factors) > 0
        raise ValueError(f"no known answer for {checks.expr(spec)}")

    def _classify(self, check, result, text):
        spec = check["spec"]
        data = json.loads(result["out"])
        n = len(self.adj(spec))
        groups = data["groups"]
        if len(groups) != checks.abelian_group_count(n):
            return f"{len(groups)} groups of order {n}, expected {checks.abelian_group_count(n)}"
        for name, ok in groups.items():
            factors = checks.parse_group(name)
            if math.prod(factors) != n or ok != self._expected_classify(spec, factors):
                return f"{name}: {ok} is wrong"
        verdict = all(groups.values())
        if spec[0] == "Kb" and verdict != checks.kmn_is_gdm(spec[1], spec[2]):
            return f"verdict {verdict} contradicts the K(m,n) formula"
        if data["group_distance_magic"] != verdict or result["rc"] != (0 if verdict else 1):
            return f"verdict {data['group_distance_magic']} (exit {result['rc']}) is inconsistent"
        return "ok"

    def _obstructions(self, check, result, text):
        data = json.loads(result["out"])
        reported = [(o["kind"], o["witness"]) for o in data["obstructions"]]
        wrong = checks.check_obstructions(self.adj(check["spec"]), reported)
        if wrong:
            return wrong
        blocking = any(kind != "forced-identity" for kind, _ in reported)
        if result["rc"] != (1 if blocking else 0):
            return f"exit {result['rc']} does not match the obstructions"
        return "ok"

    def _trees(self, check, result, text):
        sweep = json.loads(result["out"])
        if len(sweep) != len(check["sizes"]):
            return f"{len(sweep)} tree sizes, expected {len(check['sizes'])}"
        for n, data in zip(check["sizes"], sweep):
            wrong = self._trees_of_size(n, data)
            if wrong:
                return wrong
        return "ok"

    @staticmethod
    def _trees_of_size(n, data):
        if len(data) != checks.A000055[n]:
            return f"{len(data)} trees on {n} vertices, expected {checks.A000055[n]}"
        seen = set()
        for tree in data:
            adj = checks.from_edges(n, tree["edges"])
            if not checks.is_tree(adj):
                return f"{tree['edges']} is not a tree on {n} vertices"
            seen.add(checks.tree_canon(adj))
            want = checks.tree_is_gdm(adj)
            if len(tree["groups"]) != checks.abelian_group_count(n) or \
                    any(ok != want for ok in tree["groups"].values()):
                return f"classify of tree {tree['edges']} gave {tree['groups']}, expected {want}"
            wrong = checks.check_obstructions(adj, tree["obstructions"])
            if wrong:
                return f"tree {tree['edges']}: {wrong}"
        if len(seen) != len(data):
            return f"two returned trees on {n} vertices are isomorphic"
        return None


# --- metrics -------------------------------------------------------------------------

# span name -> per-layer metric, summed over spans not nested in one of the same name
SPAN_TOTALS = {"graphs.construct_graph": "graphs.parse_ms",
              "graphs.metrics": "graphs.metrics_ms",
              "graphs.enumerate_trees": "graphs.trees_ms",
              "products.lex_product": "products.lex_ms",
              "products.direct_product": "products.dir_ms",
              "magic.verify_certificate": "magic.verify_cert_ms",
              "magic.format_certificate": "magic.cert_format_ms",
              "magic.parse_certificate": "magic.cert_parse_ms",
              "magic.all_obstructions": "magic.obstructions_ms"}


def pass_seconds(times: dict[int, list[float]]) -> float:
    return sum(statistics.median(ts) for ts in times.values())


def _ms(ns: float) -> float:
    return ns / 1e6


def layer_values(traces: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced pass (the traces of its operations)."""
    v = defaultdict(float)
    for trace in traces:
        spans, counters = trace["spans"], trace["counters"]

        def module(k):
            return spans[k][0].split(".")[0]

        def has_ancestor(k, mod=None):
            """Whether span k sits inside a span of module mod, or of its
            own name when mod is None."""
            parent = spans[k][1]
            while parent >= 0:
                same = module(parent) == mod if mod else spans[parent][0] == spans[k][0]
                if same:
                    return True
                parent = spans[parent][1]
            return False

        child_ns = defaultdict(int)
        for name, parent, start, end, *_ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        outer_products_in = defaultdict(int)
        for k, (name, parent, start, end, tag, value, verify_ns) in enumerate(spans):
            dur = end - start
            mod = module(k)
            if mod == "products" and not has_ancestor(k, "products"):
                p = parent
                while p >= 0:
                    if module(p) == "constructors" and not has_ancestor(p, "constructors"):
                        outer_products_in[p] += dur
                    p = spans[p][1]
            if name in SPAN_TOTALS and not has_ancestor(k):
                v[SPAN_TOTALS[name]] += _ms(dur)
            if name == "magic.verify_certificate" and tag == "reject":
                v["magic.reject_ms"] += _ms(dur)
            if name == "abelian.find_cyclic_factor":
                v["abelian.split_us"] += dur / 1e3
            if mod == "constructors" and not has_ancestor(k, "constructors"):
                v["constructors.label_ms"] += _ms(dur)
                v["constructors.self_ns"] += dur - verify_ns
            if mod == "solver" and not has_ancestor(k, "solver"):
                if name == "solver.classify_over_all_groups":
                    v["solver.classify_ms"] += _ms(dur)
                elif name == "solver.search_labelings":
                    v[f"solver.{tag}_ms"] += _ms(dur)
                    if tag == "count":
                        v["solver.labelings"] += value
            if name == "cli.run":
                v["cli.self_ms"] += _ms(dur - child_ns[k])
        v["constructors.self_ns"] -= sum(outer_products_in.values())

        def count(name, field=0):
            return counters.get(name, [0, 0])[field]

        for op in ("add", "sub", "neg"):
            v["abelian.add_calls"] += count(f"abelian.GroupSpec.{op}")
        v["abelian.add_n"] += count("abelian.GroupSpec.add")
        v["abelian.add_total_ns"] += count("abelian.GroupSpec.add", 1)
        v["abelian.split_us"] += count("abelian.CyclicFactorSplit.from_pair", 1) / 1e3
        v["graphs.builds"] += count("graphs.from_edges")
        v["graphs.edges_built"] += count("graphs.from_edges.edges")
        v["magic.verify_ms"] += _ms(count("magic.verify", 1))
        v["magic.small_n"] += count("magic.verify.small")
        v["magic.small_ns"] += count("magic.verify.small", 1)
    v["abelian.add_ns"] = v.pop("abelian.add_total_ns", 0.0) / max(1, v.pop("abelian.add_n", 0.0))
    v["magic.naive_verify_us"] = v.pop("magic.small_ns", 0.0) / 1e3 / max(1, v.pop("magic.small_n", 0.0))
    v["constructors.self_ms"] = _ms(v.pop("constructors.self_ns", 0.0))
    labelings = v.pop("solver.labelings", 0.0)
    v["solver.labelings_per_s"] = labelings / (v["solver.count_ms"] / 1e3) if v["solver.count_ms"] else 0.0
    return v


def span_summary(traces: list[dict], passes: int) -> dict:
    """Calls, total and self time per span or counter name, per pass."""
    out = defaultdict(lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
    for trace in traces:
        spans = trace["spans"]
        child_ns = defaultdict(int)
        for name, parent, start, end, *_ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for k, (name, parent, start, end, *_) in enumerate(spans):
            row = out[name]
            row["calls"] += 1 / passes
            row["total_ms"] += _ms(end - start) / passes
            row["self_ms"] += _ms(end - start - child_ns[k]) / passes
        for name, (calls, ns) in trace["counters"].items():
            row = out[name]
            row["calls"] += calls / passes
            row["total_ms"] += _ms(ns) / passes
    return dict(sorted(out.items()))


# --- the run ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gdmagic", "__init__.py")):
        print(f"error: no gdmagic sources under {SRC}", file=sys.stderr)
        return 2

    outdir = os.path.join(OUT, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        return _run(args, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def _run(args, outdir: str) -> int:
    traced_mode = bool(args.trace)
    ops = workloads.build(args.workload, args.seed, outdir)
    checker = Checker(ops)

    Server(args.workload, args.seed, outdir).close()  # compiles bytecode; not timed
    setups, imports = [], []
    for _ in range(EXTRA_PROBES):
        server = Server(args.workload, args.seed, outdir)
        server.close()
        setups.append(server.setup_s)
        imports.append(server.import_s)

    times = {False: defaultdict(list), True: defaultdict(list)}
    raw_times = defaultdict(list)  # untraced, not scaled
    all_times, rss_kb, traces, trace_log, cals = [], [], [], [], []
    attempted = failed = 0
    wrong = []
    round_s = []
    start = time.perf_counter()
    round_no = 0
    while True:
        traced = traced_mode and round_no % 2 == 1
        began = time.perf_counter()
        round_traces = []
        # A fresh server each round, so that per-process effects such as the
        # hash seed and memory layout are averaged over the rounds.
        server = Server(args.workload, args.seed, outdir)
        setups.append(server.setup_s)
        imports.append(server.import_s)
        try:
            before = server.calibrate()
            cals.append(before)
            for index in workloads.round_order(ops, args.seed, round_no, traced_mode):
                op = ops[index]
                result = server.run(index, traced)
                after = server.calibrate()
                cals.append(after)
                scale = CAL_REF_S / ((before + after) / 2)
                before = after
                attempted += 1
                verdict = "unreadable output" if result["rc"] is None else checker(index, op, result)
                if verdict != "ok":
                    failed += 1
                    if verdict != "failed":
                        wrong.append(f"{op['id']}: {verdict} {result['err'][-300:]}")
                if result["elapsed"] is not None:
                    times[traced][index].append(result["elapsed"] * scale)
                    if not traced:
                        raw_times[index].append(result["elapsed"])
                        all_times.append(result["elapsed"] * scale)
                        rss_kb.append(result["maxrss_kb"])
                if traced:
                    round_traces.append(result["trace"])
                    trace_log.append({"op": op["id"], "round": round_no, **result["trace"]})
        finally:
            server.close()
        if traced:
            traces.append(round_traces)
        round_s.append(time.perf_counter() - began)
        round_no += 1
        elapsed = time.perf_counter() - start
        need = MIN_TRACE_ROUNDS if traced_mode else MIN_ROUNDS
        if round_no >= need and elapsed + max(round_s[-2:]) > args.seconds:
            break

    for reason in wrong:
        print(f"wrong: {reason}", file=sys.stderr)
    cal_s = statistics.median(cals)
    print(f"raw: calibrate {cal_s * 1e3:.2f} ms, setup {statistics.median(setups):.4f} s, "
          f"pass {pass_seconds(raw_times):.4f} s, "
          f"op p50 {statistics.median(t for ts in raw_times.values() for t in ts) * 1e3:.2f} ms",
          file=sys.stderr)
    if traced_mode:
        per_pass = [layer_values(t) for t in traces]
        values = {m["name"]: statistics.median(v.get(m["name"], 0.0) for v in per_pass)
                  for m in SPEC["per_layer"]}
        values["cli.import_ms"] = statistics.median(imports) * 1e3
        values["trace.overhead_pct"] = (pass_seconds(times[True]) / pass_seconds(times[False]) - 1) * 100
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "summary": span_summary([t for r in traces for t in r], len(traces)),
                       "metrics": metrics, "ops": trace_log}, fh)
    else:
        values = {"setup_s": statistics.median(setups) * CAL_REF_S / cal_s,
                  "pass_s": pass_seconds(times[False]),
                  "op_p50_ms": statistics.median(all_times) * 1e3,
                  "peak_rss_mb": max(rss_kb) / 1024}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
