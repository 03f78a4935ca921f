"""Fork server: runs each operation in a child forked from a process that has
imported gdmagic and gdmagic.cli and run nothing, so that no operation sees
state an earlier one left behind.

    python3 perfbench/server.py <workload> <seed> <outdir> <src dir>

It imports the package, builds the workload's operations and prints one
JSON line {"ready": ..., "import_s": ...}. Then, for each request line
{"op": index, "trace": bool} on stdin, it forks, runs the operation, waits
for the child and prints one JSON result line; {"op": "calibrate"} runs the
calibration routine the same way. It exits at end of input.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
import traceback

import checks

CALIBRATE = {"kind": "calibrate"}


def calibrate() -> None:
    """A fixed piece of pure-Python graph and group work, in the benchmark's
    own code, so no change to gdmagic moves its time: it measures how fast
    the host runs Python at that moment (about 40 ms on a 2 vCPU Xeon)."""
    adj = checks.build(("lex", ("C", 100), ("KmM", 8)))
    factors = (8, 100)
    checks.weights(adj, factors, checks.elements(factors))
    for src in range(0, len(adj), 25):
        checks._distances(adj, src)


def _execute(op: dict, gdmagic, cli) -> dict:
    """Run one operation; only the call into gdmagic is timed."""
    if op["kind"] == "calibrate":
        start = time.perf_counter()
        calibrate()
        return {"rc": 0, "out": "", "err": "", "elapsed": time.perf_counter() - start}
    if op["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        rc = cli.run(op["argv"], out=out, err=err)
        elapsed = time.perf_counter() - start
        return {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "elapsed": elapsed}
    start = time.perf_counter()
    sweep = []
    for n in op["sizes"]:
        trees = gdmagic.enumerate_trees(n)
        sweep.append([(t, gdmagic.classify_over_all_groups(t), gdmagic.all_obstructions(t))
                      for t in trees])
    elapsed = time.perf_counter() - start
    result = [[{"edges": t.edges(),
                "groups": {str(spec): ok for spec, ok in groups.items()},
                "obstructions": [[o.kind, list(o.witness)] for o in found]}
               for t, groups, found in trees] for trees in sweep]
    return {"rc": 0, "out": json.dumps(result), "err": "", "elapsed": elapsed}


def _child(op: dict, trace: bool, write_fd: int, gdmagic, cli) -> None:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)  # stdout carries the protocol; keep stray prints off it
    recorder = None
    if trace:
        import tracer
        recorder = tracer.Trace()
        recorder.install()
    payload = _execute(op, gdmagic, cli)
    if recorder is not None:
        payload["trace"] = recorder.export()
    with os.fdopen(write_fd, "wb") as fh:
        fh.write(json.dumps(payload).encode())


def run_forked(op: dict, trace: bool, gdmagic, cli) -> dict:
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            _child(op, trace, write_fd, gdmagic, cli)
        except BaseException:
            traceback.print_exc()
            code = 70
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        return {"rc": None, "out": "", "err": f"operation process ended with status {status}",
                "elapsed": None, "maxrss_kb": usage.ru_maxrss}
    result = json.loads(data)
    result["maxrss_kb"] = usage.ru_maxrss
    return result


def main() -> None:
    workload, seed, outdir, src = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    sys.path.insert(0, src)
    start = time.perf_counter()
    import gdmagic
    import gdmagic.cli as cli
    import_s = time.perf_counter() - start
    if not os.path.samefile(os.path.dirname(gdmagic.__file__), os.path.join(src, "gdmagic")):
        raise SystemExit(f"imported gdmagic from {gdmagic.__file__}, not from {src}")
    import workloads
    ops = workloads.build(workload, seed, outdir)
    print(json.dumps({"ready": True, "import_s": import_s, "ops": len(ops)}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        op = CALIBRATE if request["op"] == "calibrate" else ops[request["op"]]
        result = run_forked(op, request["trace"], gdmagic, cli)
        print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
