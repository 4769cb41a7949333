"""Tests of the benchmark itself, on tiny inputs.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import worker  # noqa: E402

worker.import_program()

import run  # noqa: E402
import workloads  # noqa: E402
from inputs import ProductLattice, mo_factor, o6_factor, point  # noqa: E402
from record import Op, Recorder, summarize, tail_percentile  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str, monkeypatch, work: Path):
    """A workload at a few seconds' size, set up in ``work``."""
    from stonespec import verify

    wl = workloads.WORKLOADS[name]()
    wl.seed = 3
    work.mkdir(parents=True, exist_ok=True)
    if name == "gate":  # one suite, and the cheapest criterion in place of the others
        monkeypatch.setattr(verify, "SUITES", {"stone": verify.suite_stone})
        for crit in ("spectrum_identity", "reconstruction_round_trip", "increasing_bijection",
                     "distributivity_dichotomy", "translation_and_step_approx", "ray_layer",
                     "gelfand_layer"):
            monkeypatch.setattr(verify, f"criterion_{crit}",
                                lambda seed, **kw: verify.criterion_stone_structure(seed))
    elif name == "lattice-sweep":
        monkeypatch.setattr(workloads, "lattice_sweep_points", lambda: [
            ProductLattice("B3", 3, point()), ProductLattice("MO3", 0, mo_factor(3)),
            ProductLattice("B1xO6", 1, o6_factor())])
        wl.families = 2
    elif name == "matrix-sweep":
        wl.random_n, wl.bridge_random_n = (6, 20), 20
        wl.degenerate, wl.gelfand_n, wl.rays = ((12, 3),), (3,), 2
    wl.setup(wl.seed, work)
    if name == "cli":
        wl.calls = [c for c in wl.calls if c[0] in ("check", "matrix_approx")][:3]
    return wl


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(name, monkeypatch, tmp_path):
    wl = tiny(name, monkeypatch, tmp_path)
    plain = [worker.run(wl, tmp_path, False, 0.2) for _ in range(2)]
    traced = worker.run(wl, tmp_path, True, 0.2)
    for trace, results, kind in ((0, plain, "end_to_end"), (1, [plain[0], traced], "per_layer")):
        passes, summary, _, metrics = run.assemble(BENCH, results, [0.3, 0.2, 0.4], trace)
        assert summary["correct"], [op.detail for p in passes for op in p if op.status != "ok"]
        assert list(metrics) == [m["name"] for m in BENCH[kind]]
        for m in BENCH[kind]:
            got = metrics[m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]
    assert summary["failed"] == (2 * 2 if name == "matrix-sweep" else 0)  # m > 16: known defect


def test_traced_and_untraced_outputs_are_identical(monkeypatch, tmp_path):
    for name in ("lattice-sweep", "matrix-sweep"):
        wl = tiny(name, monkeypatch, tmp_path / name)
        plain = worker.run(wl, tmp_path, False, 0.2)["ops"]
        traced = worker.run(wl, tmp_path, True, 0.2)["ops"]
        assert [(o[0], o[2], o[3]) for o in plain] == [(o[0], o[2], o[3]) for o in traced]


def test_tracer_rebinds_aliases_and_restores_them():
    mods = {n: sys.modules[f"stonespec.{n}"] for n in ("corpus", "matrix", "verify", "cli")}
    before = (mods["matrix"].boolean_lattice, mods["verify"].SUITES["lattice"],
              mods["cli"].reconstruct_fn, mods["cli"].check.callback)
    t = Tracer().install()
    try:
        assert mods["matrix"].boolean_lattice is not before[0]
        assert mods["verify"].SUITES["lattice"] is not before[1]
        assert mods["cli"].reconstruct_fn is not before[2]
        assert mods["cli"].check.callback is not before[3]
        mods["matrix"].spectral_family_of(np.diag([1.0, 2.0]))
    finally:
        t.uninstall()
    after = (mods["matrix"].boolean_lattice, mods["verify"].SUITES["lattice"],
             mods["cli"].reconstruct_fn, mods["cli"].check.callback)
    assert all(a is b for a, b in zip(before, after))
    fns = t.functions()
    assert fns["corpus.boolean_lattice"]["calls"] == 1  # reached through the matrix alias
    assert fns["matrix.eig"]["calls"] == 1
    assert "matrix.normalize_ray" not in t.names


def test_corrupted_output_is_a_failure_not_a_crash(monkeypatch, tmp_path):
    from stonespec import spectral

    real = spectral.observable_fn

    def corrupted(E):
        t = real(E)
        return spectral.ObservableTable(t.lattice, t.values + 1.0)

    wl = tiny("lattice-sweep", monkeypatch, tmp_path)
    monkeypatch.setattr(spectral, "observable_fn", corrupted)
    rec = Recorder()
    wl.run_pass(rec)
    wrong = {op.name.split(":")[0] for op in rec.ops if op.status != "ok"}
    assert {"observable_fn", "reconstruct", "f_from_r"} <= wrong
    assert "load_lattice" not in wrong

    rec = Recorder()
    assert rec.op("bad", lambda: None, lambda out: out.values) is None  # check cannot read it
    assert rec.op("raises", lambda: 1 / 0, str) is None
    assert [op.status for op in rec.ops] == ["wrong", "error"]


def test_cli_output_is_checked(monkeypatch, tmp_path):
    wl = tiny("cli", monkeypatch, tmp_path)
    monkeypatch.setattr(wl, "_call", lambda args, op_id=None: (0, "garbage\n", ""))
    rec = Recorder()
    wl.run_pass(rec)
    assert rec.ops and all(op.status == "wrong" for op in rec.ops)


def test_outputs_must_repeat_across_passes():
    first = [Op("a", 0.1, "ok", "x"), Op("b", 0.1, "ok", "y")]
    second = [Op("a", 0.1, "ok", "x"), Op("b", 0.1, "ok", "z")]
    run.compare_outputs([first, second])
    assert [op.status for op in second] == ["ok", "wrong"]


def test_figures_take_each_operation_median_first():
    passes = [[Op("a", 1.0, "ok"), Op("b", 3.0, "ok")], [Op("a", 3.0, "ok"), Op("b", 1.0, "ok")],
              [Op("a", 2.0, "ok"), Op("b", 9.0, "wrong")]]
    s = summarize(passes)
    assert (s["wall_s"], s["op_p50_ms"], s["op_tail_ms"]) == (5.0, 2500.0, 2000.0)
    assert (s["samples"], s["attempted"], s["failed"], s["correct"]) == (2, 6, 1, False)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert [tail_percentile(n) for n in (50, 123, 246, 884, 1000)] == [75, 90, 95, 95, 99]


def test_closed_forms_match_the_library():
    from stonespec import lattice

    for p in (ProductLattice("B2xMO2", 2, mo_factor(2)), ProductLattice("B2xO6", 2, o6_factor())):
        L = lattice.FiniteOML(p.names(), p.leq, p.ortho)
        assert (L.meet_table == [[p.meet(a, b) for b in range(p.n)] for a in range(p.n)]).all()
        assert (L.join_table == [[p.join(a, b) for b in range(p.n)] for a in range(p.n)]).all()
        assert L.atoms() == p.atoms
        rep = lattice.verify_structure(L)
        assert (rep.is_orthomodular, rep.is_distributive) == (p.orthomodular, p.distributive)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gate", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120, env={"PATH": "/usr/bin:/bin"})
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
