"""Acceptance gate: ten criteria, one printed verdict line each.

The full verification report is built once per session (`verify("all")` is
the single entry point) and each criterion asserts its stated tolerance on
the measured numbers, printing `ACCEPTANCE n: PASS/FAIL - detail`.

Criterion 8's envelope-stability clause fails honestly and is left red: the
measured steady-state distances fall like eps^2 (the quartic cumulant of the
steady state is O(eps^2)), far below the sqrt(eps)-shaped envelope, which is
an upper bound. The fitted envelope constant therefore drops like eps^1.5
and moves by more than a factor 3 across the wide 0.05 -> 0.02 step of the
required eps list (measured ratio 4.18; a strict-halvings list would stay
under 3). The distances themselves decrease strictly, the envelope is never
exceeded, and the constant never grows, so the underlying limit law is
confirmed; only the two-sided stability reading of the fitted constant is
unattainable. Values are pinned in the sweep check's detail for inspection.
"""

import warnings

import numpy as np
import pytest

from maxcool import harness, spectral as sp


@pytest.fixture(scope="module")
def report():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return harness.verify("all", fast=False)


def _rows(report, suite, prefix=""):
    return [c for c in report["checks"]
            if c["suite"] == suite and c["name"].startswith(prefix)]


def _one(report, suite, prefix):
    rows = _rows(report, suite, prefix)
    assert len(rows) == 1, f"expected one {prefix!r} row, got {len(rows)}"
    return rows[0]


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_kinematics_exactness(report):
    rows = [c for c in _rows(report, "kinematics")
            if not c["name"].startswith("mc-")]
    assert len(rows) == 42  # 7 identity families x 6 restitution values
    ok = all(c["status"] == "pass" for c in rows)
    worst = max(c["measured"] / c["bound"] for c in rows)
    fast_enough = report["suite_elapsed"]["kinematics"] < 360.0
    _verdict(1, ok and fast_enough,
             f"42 identity checks at 1e6 triples each; worst error at "
             f"{worst:.1e} of its tolerance; suite took "
             f"{report['suite_elapsed']['kinematics']:.0f}s")
    assert ok and fast_enough


def test_criterion_2_change_of_variables(report):
    rows = _rows(report, "kinematics", "mc-")
    assert len(rows) == 18  # 3 kernels x 3 restitutions x 2 parameterizations
    ok = all(c["status"] == "pass" for c in rows)
    worst = max(c["measured"] for c in rows)
    fast_enough = report["suite_elapsed"]["kinematics"] < 360.0
    _verdict(2, ok and fast_enough,
             f"18 Monte Carlo identities at 1e6 samples; worst |lhs-rhs| at "
             f"{worst:.2f} sigma (limit 3)")
    assert ok and fast_enough


def test_criterion_3_energy_decay(report):
    spec_row = _one(report, "weak-decay", "spectral-m2-rate")
    dsmc_row = _one(report, "weak-decay", "dsmc-m2-rate")
    ok = spec_row["status"] == "pass" and dsmc_row["status"] == "pass"
    fast_enough = report["suite_elapsed"]["weak-decay"] < 420.0
    _verdict(3, ok and fast_enough,
             f"m2 rate vs 2E=0.1875: spectral off {spec_row['measured']:.1e} "
             f"(limit 0.5%), particle off {dsmc_row['measured']:.2%} (limit 2%)")
    assert ok and fast_enough


def test_criterion_4_fisher_bounds(report):
    traj = _one(report, "fisher", "fisher-trajectory")
    gains = _rows(report, "fisher", "fisher-gain")
    assert len(gains) == 15  # 5 corpus densities x 3 restitution values
    ok = traj["status"] == "pass" and all(c["status"] == "pass" for c in gains)
    min_slack = min(c["slack"] for c in gains)
    fast_enough = report["suite_elapsed"]["fisher"] < 300.0
    _verdict(4, ok and fast_enough,
             f"trajectory margin {traj['measured']:.3f}; 15 gain bounds hold, "
             f"tightest slack {min_slack:.3f}")
    assert ok and fast_enough


def test_criterion_5_d2_decay_rate(report):
    row = _one(report, "weak-decay", "d2-decay-rate")
    gamma = sp.gamma_constants(0.9, 0.95)[1]
    assert gamma == pytest.approx(0.12204742658421754, abs=1e-15)
    assert row["bound"] == pytest.approx(0.9 * gamma, rel=1e-12)
    ok = row["status"] == "pass" and row["measured"] >= row["bound"]
    fast_enough = report["suite_elapsed"]["weak-decay"] < 420.0
    _verdict(5, ok and fast_enough,
             f"fitted d2 rate {row['measured']:.4f} >= 0.9*gamma = "
             f"{row['bound']:.4f} on t in [10, 40]")
    assert ok and fast_enough


def test_criterion_6_uniform_regularity(report):
    rows = [c for c in _rows(report, "regularity", "regularity-")]
    assert len(rows) == 4  # sup_0.5 and three Sobolev orders
    ok = all(c["status"] == "pass" for c in rows)
    tightest = min(c["slack"] / c["bound"] for c in rows)
    fast_enough = report["suite_elapsed"]["regularity"] < 300.0
    _verdict(6, ok and fast_enough,
             f"4 norm maxima within max(initial, steady)+5%; tightest "
             f"relative margin {tightest:.2%}")
    assert ok and fast_enough


def test_criterion_7_inequality_suite(report):
    rows = _rows(report, "inequalities")
    assert len(rows) == 5  # one aggregate per corpus density
    ok = all(c["status"] == "pass" for c in rows)
    min_slack = min(c["measured"] for c in rows)
    fast_enough = report["suite_elapsed"]["inequalities"] < 120.0
    _verdict(7, ok and fast_enough,
             f"Nash + interpolation + mass-bound grids on 5 densities; "
             f"minimum slack {min_slack:.4f} > 0")
    assert ok and fast_enough


def test_criterion_8_small_inelasticity_sweep(report):
    mono = _one(report, "sweep", "sweep-monotone")
    stab = _one(report, "sweep", "sweep-envelope-stability")
    table = report["sweep_table"]
    assert table["eps"] == [0.1, 0.05, 0.02, 0.01]
    assert table["dropped"] == []
    ok = mono["status"] == "pass" and stab["status"] == "pass"
    fast_enough = report["suite_elapsed"]["sweep"] < 900.0
    ratios = ", ".join(f"{r:.2f}" for r in table["c_ratios"])
    _verdict(8, ok and fast_enough,
             f"distances strictly decreasing: {mono['status']}; fitted "
             f"envelope constant stable within factor 3: {stab['status']} "
             f"(consecutive ratios {ratios}; distances fall ~eps^2, below "
             f"the sqrt(eps) envelope, so the constant is not two-sided "
             f"stable; it never grows: c_growth_ok="
             f"{table['c_growth_ok']})")
    assert mono["status"] == "pass" and fast_enough
    # honest red: the two-sided stability clause is unattainable for this
    # model at the required eps spacing (see module docstring)
    assert stab["status"] == "pass", (
        f"fitted envelope constant ratios {table['c_ratios']} exceed 3; "
        f"C values {table['c_fit']}")


def test_criterion_9_dsmc_vs_spectral(report):
    row = _one(report, "frame-consistency", "dsmc-vs-spectral-ecf")
    ok = row["status"] == "pass"
    fast_enough = report["suite_elapsed"]["frame-consistency"] < 180.0
    _verdict(9, ok and fast_enough,
             f"rescaled particle ECF vs deterministic profile at t=10: max "
             f"gap {row['measured']:.2e} within 3/sqrt(N) = {row['bound']:.2e} "
             f"on x in [0, 10]")
    assert ok and fast_enough


def test_criterion_10_replacement_checks(report):
    scale = _one(report, "fisher", "fourier-sup-fisher scale-invariance")
    env = _one(report, "regularity", "hcs-envelope-report")
    ok = scale["status"] == "pass" and env["status"] == "pass"
    d = env["detail"]
    _verdict(10, ok,
             f"no sharp constants asserted; scale-invariance holds to "
             f"{scale['measured']:.1e}, and the qualitative steady-profile "
             f"envelope report is logged (lower/upper ok fractions "
             f"{d['lower_ok_fraction']:.3f}/{d['upper_ok_fraction']:.3f}, "
             f"max violations {d['max_lower_violation']:.1e}/"
             f"{d['max_upper_violation']:.1e})")
    assert ok
    assert {"temperature", "lower_ok_fraction", "upper_ok_fraction",
            "max_lower_violation", "max_upper_violation"} <= set(d)
