"""Acceptance gate: the eight criteria at their contract sizes, tolerances
and runtime budgets (seeded, fully deterministic).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; the same checks back ``stonespec verify --suite all``.
"""

import time
from pathlib import Path

import pytest

from stonespec import verify

SEED = 7
GOLDEN = Path(__file__).parent / "golden"


def _report(number, check, seconds=None):
    clock = f" ({seconds:.2f}s)" if seconds is not None else ""
    print(f"criterion {number} {check.name}: {'PASS' if check.passed else 'FAIL'}{clock}")
    assert check.passed, f"criterion {number} failed: {check.detail}"


def test_criterion_1_spectrum_identity():
    start = time.perf_counter()
    check = verify.criterion_spectrum_identity(SEED, count=200)
    elapsed = time.perf_counter() - start
    _report(1, check, elapsed)
    assert elapsed < 10.0, f"spectrum identity took {elapsed:.2f}s (budget 10s)"


def test_criterion_2_reconstruction_round_trip():
    start = time.perf_counter()
    check = verify.criterion_reconstruction_round_trip(SEED, per_lattice=100)
    elapsed = time.perf_counter() - start
    _report(2, check, elapsed)
    assert elapsed < 5.0, f"reconstruction took {elapsed:.2f}s (budget 5s)"


def test_criterion_3_increasing_function_bijection():
    _report(3, verify.criterion_increasing_bijection(SEED, instances=1000))


def test_criterion_4_distributivity_dichotomy():
    _report(4, verify.criterion_distributivity_dichotomy(SEED))


def test_criterion_5_translation_and_step_approximation():
    _report(5, verify.criterion_translation_and_step_approx(SEED))


def test_criterion_6_ray_layer():
    _report(6, verify.criterion_ray_layer(SEED))


def test_criterion_7_gelfand_layer():
    _report(7, verify.criterion_gelfand_layer(SEED))


def test_criterion_8_stone_structure():
    _report(8, verify.criterion_stone_structure(SEED))


def test_full_synthesis_exit_condition():
    """The CLI-facing aggregate: every criterion green in one sweep, with the
    pinned text."""
    checks = verify.acceptance(SEED)
    assert len(checks) == 8
    failed = [c.name for c in checks if not c.passed]
    assert not failed, f"failing criteria: {failed}"
    assert verify.render_text(checks) == (GOLDEN / "acceptance-seed7.txt").read_text()


def test_raising_criterion_reports_error_and_the_rest_run(monkeypatch):
    """A criterion that raises is one ERROR line; the other seven still run."""

    def boom(seed, **kw):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "criterion_ray_layer", boom)
    checks = verify.acceptance(SEED)
    assert [c.passed for c in checks] == [True] * 5 + [False] + [True] * 2
    want = (GOLDEN / "acceptance-seed7.txt").read_text().splitlines()
    want[5] = "ERROR ray-layer [RuntimeError: boom]"
    want[-1] = "7/8 checks passed"
    assert verify.render_text(checks).splitlines() == want
