import contextlib
import io
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codelat.ensembles import (
    EnsembleConfig,
    _chi2_sf,
    binary_entropy,
    condition_checks,
    gvb_maximize,
    gvb_packing_efficiency,
    sample_main_code,
    scaled_point_density,
)
from oracles import oracle_chi2_sf


def test_import_leaves_scipy_stats_unloaded():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run(
        [sys.executable, "-c", "import codelat, sys; assert 'scipy.stats' not in sys.modules"],
        env=env,
        check=True,
        timeout=60,
    )


def test_import_loads_only_stdlib_and_numpy():
    # a cold import is the set-up time of every command: the top-level
    # modules it adds must be the standard library's, numpy's or codelat's
    script = (
        "import sys; before = set(sys.modules); import codelat; "
        "added = {m.partition('.')[0] for m in set(sys.modules) - before}; "
        "print(*sorted(added - set(sys.stdlib_module_names) - {'numpy', 'codelat'}))"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert run.stdout.split() == []


def test_no_scipy_at_runtime():
    # with scipy blocked before codelat is imported, each command prints the
    # same bytes as a normal run
    from codelat.cli import main

    script = "import sys; sys.modules['scipy'] = None; from codelat.cli import main; sys.exit(main(sys.argv[1:]))"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    for argv in (["conditions", "--trials", "20000", "--seed", "3"], ["table1"], ["leech"]):
        blocked = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert blocked.returncode == 0, blocked.stderr
        normal = io.StringIO()
        with contextlib.redirect_stdout(normal):
            assert main(argv) == 0
        assert blocked.stdout == normal.getvalue()


def _condition_dofs() -> set[int]:
    """Every dof condition_checks can produce: cells - 1 and (cells - 1)^2
    for the alphabets it accepts, cells = q^n <= 256."""
    cells = [2**b for b in range(1, 9)]
    return {c - 1 for c in cells} | {(c - 1) ** 2 for c in cells}


def test_chi2_sf_matches_incomplete_gamma():
    checked = 0
    for dof in sorted(_condition_dofs() | set(range(1, 65))):
        spread = math.sqrt(2 * dof)
        stats = [1e-300, 1e-12, 1e-3, dof / 50, dof - spread, dof, dof + spread]
        stats += [dof + 8 * spread + 10, 40.0 * dof + 200]
        assert _chi2_sf(0.0, dof) == 1.0
        for stat in stats:
            if stat <= 0:
                continue
            expected = oracle_chi2_sf(stat, dof)
            got = _chi2_sf(stat, dof)
            assert 0.0 <= got <= 1.0
            if expected < 1e-300:
                assert got < 1e-290
                continue
            assert got == pytest.approx(expected, rel=1e-9), (stat, dof)
            checked += 1
    assert checked > 550


def test_chi2_sf_underflows_to_zero():
    for dof in (1, 2, 15, 225, 65025):
        assert oracle_chi2_sf(100.0 * dof + 2000, dof) < 1e-300
        assert _chi2_sf(100.0 * dof + 2000, dof) == 0.0


@pytest.mark.parametrize("n, L", [(2, 2), (1, 1), (4, 2)])
def test_condition_checks_p_values_match_scipy(n, L):
    from scipy.stats import chi2

    for seed in range(10):
        report = condition_checks(EnsembleConfig(n=n, L=L, rate=0.5, seed=seed), trials=20000)
        for result in (report.marginal_uniform, report.pair_independent, report.pair_shared_lsb):
            expected = float(chi2.sf(result.statistic, result.dof))
            assert result.p_value == pytest.approx(expected, rel=1e-9, abs=1e-300)


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
    assert main.linear is True
    assert len(main) == 1 << len(main.generators())
    # held by its rows: past n*L = 64 nothing is enumerated
    wide = sample_main_code(EnsembleConfig(n=24, L=3, rate=0.5, mode=cfg.mode, seed=7))
    assert wide.linear is True and len(wide) == 1 << len(wide.generators()) <= 1 << 36


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
