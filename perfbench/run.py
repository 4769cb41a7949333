"""stonespec benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads: lattice-sweep, matrix-sweep, cli, and gate, which BENCHMARK.json
leaves out (see workloads.py).  Run from the root of a checkout; the
program is imported from its ``src/``.

Every pass runs in a fresh worker process, as a user's single run would:
set-up is timed from process start to the end of input generation and
warm-up, then the pass is timed.  Passes repeat until the next one would
end after ``--seconds`` (at least MIN_PASSES; set-up at least SETUPS
times).  With ``--trace 1`` one pass runs untraced and one traced, and
the per-layer figures come from the traced one.  Operation outputs must
be identical in every pass, traced or not.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``, which holds the end-to-end
metrics of BENCHMARK.json with ``--trace 0`` and its per-layer metrics
with ``--trace 1``.  The line before it names every end-to-end figure
with its unit, ``fail_ratio`` included.  Full results, the environment
and the host calibration go to ``.perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from envinfo import environment  # noqa: E402
from record import Op, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_PASSES = 2
SETUPS = 5
TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def worker(args: list[str]) -> tuple[float, dict | None]:
    """Run one worker; return its set-up seconds and its result line."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerError("worker timed out") from None
    finally:
        if proc.poll() is None:  # let it clean up, then make sure it has ended
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return setup_s, (json.loads(out.strip().splitlines()[-1]) if out.strip() else None)


def compare_outputs(passes: list[list[Op]]) -> None:
    """Mark as wrong every operation whose output differs from the same
    operation's in the first pass."""
    first = passes[0]
    for ops in passes[1:]:
        for i, op in enumerate(ops):
            ref = first[i] if i < len(first) else None
            if op.status != "ok" or (ref is not None and ref.status != "ok"):
                continue
            if ref is None or ref.name != op.name or ref.digest != op.digest:
                op.status, op.detail = "wrong", "output differs from the first pass"


def assemble(bench: dict, results: list[dict], setups: list[float], trace: int):
    """Operations, summary, end-to-end figures and the reported metrics of
    one run; KeyError names a metric of BENCHMARK.json that was not produced."""
    passes = [[Op(*row) for row in res["ops"]] for res in results]
    compare_outputs(passes)
    s = summarize(passes)
    e2e = {
        "wall_s": s["wall_s"],
        "setup_s": statistics.median(setups),
        "op_p50_ms": s["op_p50_ms"],
        "op_tail_ms": s["op_tail_ms"],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    if trace:
        plain, traced = results
        wanted = bench["per_layer"]
        source = {**traced["figures"], **plain["extras"],
                  "trace.overhead_ratio": traced["wall_s"] / plain["wall_s"]}
    else:
        wanted, source = bench["end_to_end"], e2e
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}
    return passes, s, e2e, metrics


def main() -> int:
    # turn a termination request into an exit that stops the worker first
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    setups, results = [], []
    start = perf_counter()
    try:
        if args.trace:
            for trace in ("0", "1"):
                setup_s, res = worker([*base, "--trace", trace])
                setups.append(setup_s)
                results.append(res)
        else:
            while True:
                setup_s, res = worker([*base, "--trace", "0"])
                setups.append(setup_s)
                results.append(res)
                per_pass = (perf_counter() - start) / len(results)
                if len(results) >= MIN_PASSES and perf_counter() - start + per_pass > args.seconds:
                    break
            while len(setups) < SETUPS:
                setups.append(worker([*base, "--setup-only"])[0])
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    try:
        passes, s, e2e, metrics = assemble(bench, results, setups, args.trace)
    except KeyError as exc:
        print(f"benchmark failed: metric not produced: {exc}", file=sys.stderr)
        return 1

    failures = [f"{op.status} {op.name}: {op.detail}" for ops in passes for op in ops
                if op.status != "ok"]
    out_dir = ROOT / ".perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "summary": s, "end_to_end": e2e, "metrics": metrics,
        "setup_samples_s": setups, "pass_walls_s": [r["wall_s"] for r in results],
        "failures": failures[:50], "environment": environment(ROOT, args.seed),
        "workers": [{k: v for k, v in r.items() if k != "ops"} for r in results],
    }, indent=1))

    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    figures = [f"{k}={v:.6g} {units[k]}" for k, v in e2e.items()]
    figures.append(f"fail_ratio={s['fail_ratio']:.6g} ratio (of {s['attempted']} ops)")
    print(f"{args.workload} seed={args.seed}: " + ", ".join(figures)
          + f"; op_tail_ms is p{s['tail_percentile']:g} of {s['samples']} ops,"
          f" each the median of {s['passes']} passes")
    for line in failures[:10]:
        print(f"  {line}")
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
