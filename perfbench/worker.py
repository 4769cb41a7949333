"""One pass of one workload, in a fresh process.

    python perfbench/worker.py --workload W --seed N --trace 0|1 [--setup-only]

Prints ``ready`` once set-up is done (the parent times set-up up to that
line), then, unless ``--setup-only``, runs one pass and prints one JSON
line with its operations and figures.  With ``--trace 1`` the pass runs
with the layer tracer installed and the line also carries the per-layer
figures.  The program is imported from ``src/`` of the checkout this file
sits in.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_program() -> float:
    """Import stonespec.cli (and with it every layer) from this checkout;
    return the seconds the import took."""
    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    importlib.import_module("stonespec.cli")
    seconds = perf_counter() - t0
    where = Path(sys.modules["stonespec"].__file__).resolve()
    if not where.is_relative_to(ROOT / "src"):
        raise SystemExit(f"stonespec imported from {where}, not from this checkout")
    return seconds


def interpreter_seconds(repeat: int = 3) -> float:
    """Median wall time of a bare interpreter start and exit."""
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def layer_figures(wl, tracer, eigh_s: float, band_hits: int, import_s: float, ops) -> dict:
    """Per-layer figures of a traced pass."""
    from tracer import RAY_CALLS, function_figures, ratio
    from workloads import CLI_COMMANDS

    fns = tracer.functions()

    def row(name, kind):
        return fns.get(name, {}).get(kind, 0.0)

    names = sorted({name for _, _, _, name, _, _ in tracer.spans} | set(tracer.names))
    figs = function_figures(tracer, names)
    rays = [fns.get(n, {}) for n in RAY_CALLS]
    figs.update({
        "kernels.cells_computed": float(tracer.cells),
        "recon.recheck_ratio": ratio(row("recon.is_completely_increasing", "calls"),
                                     row("recon.reconstruct", "calls")
                                     + row("recon.f_from_r", "calls")),
        "stone.oracle_share": tracer.oracle_share(),
        "matrix.eig_over_eigh": ratio(row("matrix.eig", "incl_s"), eigh_s),
        "matrix.ray_us": 1e6 * ratio(sum(r.get("self_s", 0.0) for r in rays),
                                     sum(r.get("calls", 0) for r in rays)),
        "matrix.warn_band_hits": float(band_hits),
        "corpus.elements_built": float(tracer.elements_built),
        "matrix.lattice_use_ratio": ratio(tracer.family_atoms, tracer.family_elements),
        "cli.import_s": import_s,
        "cli.interp_s": interpreter_seconds(),
        # op time outside every outermost traced call: the benchmark's own
        # code, unwrapped helpers, and for the CLI interpreter start and imports
        "trace.unattributed_s": max(0.0, sum(op.seconds for op in ops)
                                    - tracer.top_level_seconds()),
        # figures of one workload only; the untraced pass's extras replace them
        "lattice.scaling_exp": 0.0,
        **{f"cli.{c}.p50_ms": 0.0 for c in CLI_COMMANDS},
    })
    return {"figures": figs, "functions": fns, "baseline": wl.baseline(tracer, ops)}


def run(wl, work: Path, trace: bool, import_s: float) -> dict:
    from envinfo import calibrate
    from record import Recorder, WarningCounter
    from tracer import Tracer, merge, traceable_names

    calib_before = calibrate()
    tracer = None
    if trace and wl.name == "cli":
        wl.spans_dir = work / "spans"
        wl.spans_dir.mkdir()
    elif trace:
        tracer = Tracer()
        tracer.install()
    rec = Recorder(tracer=tracer)
    try:
        with WarningCounter() as warned:
            t0 = perf_counter()
            wl.run_pass(rec)
            wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    out = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "band_hits": warned.band_hits,
        "import_s": import_s,
        "ops": [[op.name, op.seconds, op.status, op.digest, op.detail] for op in rec.ops],
        "extras": wl.layer_extras(rec.ops),
    }
    if trace:
        if tracer is None:  # the CLI: spans come from the child processes
            exports = [json.loads(p.read_text()) for p in sorted(wl.spans_dir.glob("op*.json"))]
            tracer, eigh_s = merge(exports)
            band_hits = sum(ex["band_hits"] for ex in exports)
            import_s = statistics.median(ex["import_s"] for ex in exports)
            tracer.names = traceable_names()
        else:
            eigh_s, band_hits = tracer.eigh_seconds(), warned.band_hits
        out.update(layer_figures(wl, tracer, eigh_s, band_hits, import_s, rec.ops))
        spans = ROOT / ".perfbench" / "out"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(spans / f"{wl.name}-s{wl.seed}-spans.jsonl")
    out["calibration"] = {"before": calib_before, "after": calibrate()}
    return out


def main() -> int:
    # a termination request unwinds, so CLI children are stopped and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import_s = import_program()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    wl.seed = args.seed
    work = ROOT / ".perfbench" / "work" / f"{wl.name}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl.setup(args.seed, work)
        print("ready", flush=True)
        if not args.setup_only:
            print(json.dumps(run(wl, work, bool(args.trace), import_s)), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
