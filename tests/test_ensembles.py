import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codelat import catalog
from codelat.ensembles import (
    EnsembleConfig,
    binary_entropy,
    condition_checks,
    empirical_dmin_ensemble,
    gvb_maximize,
    gvb_packing_efficiency,
    gvb_size_check,
    sample_main_code,
    scaled_point_density,
)
from codelat.gf2 import BinaryCode


def test_import_leaves_scipy_stats_unloaded():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run(
        [sys.executable, "-c", "import codelat, sys; assert 'scipy.stats' not in sys.modules"],
        env=env,
        check=True,
        timeout=60,
    )


def test_sample_main_code_deterministic():
    cfg = EnsembleConfig(n=2, L=2, rate=0.5, seed=99)
    a = sample_main_code(cfg)
    b = sample_main_code(cfg)
    assert a.inner.words.tolist() == b.inner.words.tolist()


def test_sample_main_code_sizes():
    cfg = EnsembleConfig(n=2, L=2, rate=0.5, seed=1)
    main = sample_main_code(cfg)
    assert len(main) == 4 and main.inner.n == 4
    assert len(set(main.inner.words.tolist())) == 4


def test_sample_linear_mode_rank_reported_by_size():
    cfg = EnsembleConfig(
        n=2, L=2, rate=0.99, mode="linear-random-generator", seed=7
    )
    main = sample_main_code(cfg)
    # k = ceil(4 * 0.99) = 4 requested columns; realized rank = log2 |C|
    assert cfg.k == 4
    assert len(main) == 1 << main.inner.rank()
    assert main.inner.linear is True


def test_scaled_point_density():
    cfg = EnsembleConfig(n=2, L=2, rate=0.5, seed=0)
    a_star, density = scaled_point_density(cfg)
    assert math.isclose(a_star, 0.5)
    assert density == 1.0  # n*L*R = 2 is an integer
    cfg = EnsembleConfig(n=3, L=1, rate=0.5, seed=0)
    _, density = scaled_point_density(cfg)
    assert math.isclose(density, 2.0 ** (2 - 1.5))
    cfg = EnsembleConfig(n=2, L=2, rate=0.999, seed=0)
    a_star, _ = scaled_point_density(cfg)
    assert a_star < 1.0 and math.isclose(a_star, 4.0 ** -(1 - 0.999))


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    # high-precision reference: -p log2 p - (1-p) log2(1-p) at p = 0.195
    mp.mp.dps = 30
    p = mp.mpf("0.195")
    expected = float(-p * mp.log(p, 2) - (1 - p) * mp.log(1 - p, 2))
    assert math.isclose(binary_entropy(0.195), expected, rel_tol=1e-12)
    assert math.isclose(binary_entropy(0.195), 0.7118146702, abs_tol=1e-9)
    with pytest.raises(ValueError):
        binary_entropy(-0.1)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_binary_entropy_symmetric(p):
    assert math.isclose(binary_entropy(p), binary_entropy(1.0 - p), abs_tol=1e-12)


def test_gvb_curve_point_at_reported_optimum():
    point = gvb_packing_efficiency(0.195)
    assert math.isclose(point.rho, 0.4168, abs_tol=5e-5)
    assert point.levels_used >= 20


def test_gvb_curve_small_and_large_alpha_below_peak():
    peak = gvb_packing_efficiency(0.195).rho
    assert gvb_packing_efficiency(0.05).rho < peak
    assert gvb_packing_efficiency(0.45).rho < peak
    tiny = gvb_packing_efficiency(1e-8).rho
    assert tiny < 0.01


def test_gvb_truncation_stable():
    for alpha in (0.01, 0.195, 0.4999):
        loose = gvb_packing_efficiency(alpha, tol=1e-15)
        tight = gvb_packing_efficiency(alpha, tol=1e-30)
        assert tight.levels_used >= 2 * loose.levels_used - 4
        assert abs(loose.rho - tight.rho) < 1e-10


def test_gvb_maximize_window():
    alpha_star, rho_star = gvb_maximize()
    assert 0.190 <= alpha_star <= 0.200
    assert 0.4163 <= rho_star <= 0.4173
    assert rho_star < 0.5


def test_gvb_maximize_restricted_domain():
    _, rho_restricted = gvb_maximize(lo=0.3, hi=0.5)
    _, rho_global = gvb_maximize()
    assert rho_restricted < rho_global


def test_gvb_curve_shape_past_optimum():
    # decreasing from the peak down to a shallow local minimum near 0.42,
    # then a mild rise toward 0.5 that stays below the peak throughout
    down = [gvb_packing_efficiency(float(a)).rho for a in np.linspace(0.21, 0.40, 20)]
    assert all(a > b for a, b in zip(down, down[1:]))
    peak = gvb_packing_efficiency(0.195).rho
    tail = [gvb_packing_efficiency(float(a)).rho for a in np.linspace(0.21, 0.5, 30)]
    assert all(r < peak for r in tail)


def test_gvb_size_check():
    golay = catalog.golay24()
    # exact ball size sum(C(24, w), w <= 7) = 536155; 4096 * 536155 >= 2^24
    ball = sum(math.comb(24, w) for w in range(8))
    assert ball == 536155
    assert 4096 * ball >= 1 << 24
    assert gvb_size_check(golay)
    assert gvb_size_check(catalog.repetition_code(6))
    with pytest.raises(ValueError):
        gvb_size_check(BinaryCode(4, [0]))


def test_condition_checks_flags_dependence():
    cfg = EnsembleConfig(n=2, L=2, rate=0.5, seed=1234)
    report = condition_checks(cfg, trials=100000)
    assert report.cells == 16
    assert report.marginal_uniform.p_value >= 1e-3
    assert report.pair_independent.p_value >= 1e-3
    assert report.pair_shared_lsb.p_value < 1e-3
    assert report.density == 1.0
    assert len(report.schedule) == 5
    assert report.schedule[-1]["resolution"] < report.schedule[0]["resolution"]


def test_condition_checks_empty():
    cfg = EnsembleConfig(n=2, L=2, rate=0.5, seed=0)
    assert condition_checks(cfg, trials=0) is None


def test_condition_checks_rejects_large_alphabet():
    cfg = EnsembleConfig(n=4, L=3, rate=0.5, seed=0)
    with pytest.raises(ValueError):
        condition_checks(cfg, trials=10)


def test_empirical_dmin_reproducible():
    cfg = EnsembleConfig(n=4, L=2, rate=0.5, seed=5)
    a = empirical_dmin_ensemble(cfg, trials=1)
    b = empirical_dmin_ensemble(cfg, trials=1)
    assert a == b
    assert a.cstar_min >= 1 and a.c_min >= 1


def test_empirical_dmin_single_level_identical_ensemble():
    cfg = EnsembleConfig(n=4, L=1, rate=0.5, seed=6)
    summary = empirical_dmin_ensemble(cfg, trials=40)
    # with one level both draws follow the same recipe; distributions of
    # d^2 should sit in the same small range
    assert abs(summary.cstar_mean - summary.c_mean) <= 2.0
    assert summary.cstar_max <= 4 and summary.c_max <= 4


def test_empirical_dmin_summary_direction():
    cfg = EnsembleConfig(n=4, L=2, rate=0.5, seed=7)
    summary = empirical_dmin_ensemble(cfg, trials=60)
    # reported, not asserted as a theorem: the joint lift tends to do at
    # least as well on average on this seeded run
    assert summary.cstar_mean >= summary.c_mean - 0.5
