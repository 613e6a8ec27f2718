import math

import numpy as np
import pytest

from codelat import catalog
from codelat.constructions import (
    PeriodicConstellation,
    associated_construction_c,
    construction_cstar,
    product_main_code,
)
from codelat.geometry import dmin_oracle
from codelat.packing import (
    compare_from_logs,
    log_unit_ball_volume,
    packing_report,
    packing_report_from_counts,
)
from oracles import compare_cstar_vs_c, random_linear_code, random_linear_main_code


def test_log_unit_ball_volume():
    assert math.isclose(log_unit_ball_volume(2), math.log(math.pi))
    assert math.isclose(log_unit_ball_volume(1), math.log(2.0))
    v24 = math.pi**12 / math.factorial(12)
    assert math.isclose(log_unit_ball_volume(24), math.log(v24), rel_tol=1e-12)


def test_packing_report_worked_examples():
    P4 = construction_cstar(catalog.worked_example("ex4"))
    rep = packing_report(P4)
    assert rep.dmin2 == 1
    assert math.isclose(rep.delta, math.pi / 16, rel_tol=1e-12)
    assert math.isclose(rep.rho, 0.4431, abs_tol=5e-5)

    P5 = construction_cstar(catalog.worked_example("ex5"))
    rep = packing_report(P5)
    assert math.isclose(rep.delta, math.pi / 4, rel_tol=1e-12)
    assert math.isclose(rep.rho, 0.8862, abs_tol=5e-5)


def test_packing_report_leech_counts():
    rep = packing_report_from_counts(n=24, L=3, num_points=1 << 36, dmin2=32)
    v24 = math.pi**12 / math.factorial(12)
    assert math.isclose(rep.delta, v24, rel_tol=1e-12)  # (sqrt(32)/2)^24 = 2^36
    assert math.isclose(rep.rho, 0.7707, abs_tol=5e-5)
    assert math.isclose(rep.delta, 0.0019295743, rel_tol=1e-6)


def test_packing_density_never_above_one():
    rng = np.random.default_rng(127)
    for _ in range(40):
        main = random_linear_main_code(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        rep = packing_report(construction_cstar(main))
        assert 0.0 < rep.delta <= 1.0 + 1e-12
    with pytest.raises(ValueError):
        packing_report_from_counts(n=2, L=1, num_points=4, dmin2=9)


def test_packing_efficiency_scale_invariant():
    # scaling reps and the period by an integer leaves rho unchanged;
    # emulate by doubling every coordinate with one extra level
    P = construction_cstar(catalog.worked_example("ex5"))
    d2 = dmin_oracle(P)
    scaled = PeriodicConstellation(
        n=P.n,
        L=P.L + 1,
        q=2 * P.q,
        reps=tuple(tuple(2 * c for c in r) for r in P.reps),
        source="custom",
    )
    d2s = dmin_oracle(scaled)
    assert d2s == 4 * d2
    a = packing_report(P, d2)
    b = packing_report(scaled, d2s)
    assert math.isclose(a.rho, b.rho, rel_tol=1e-12)
    assert math.isclose(a.delta, b.delta, rel_tol=1e-12)


def test_compare_examples():
    main = catalog.worked_example("ex13")
    d1 = dmin_oracle(construction_cstar(main))
    d2 = dmin_oracle(associated_construction_c(main))
    assert (d1, d2) == (4, 4)
    cmp = compare_cstar_vs_c(main, d1, d2)
    assert not cmp.cstar_delta_ge and cmp.delta_winner == "associated_c"

    swapped = catalog.worked_example("ex13-swapped")
    d1 = dmin_oracle(construction_cstar(swapped))
    d2 = dmin_oracle(associated_construction_c(swapped))
    assert (d1, d2) == (4, 2)
    cmp = compare_cstar_vs_c(swapped, d1, d2)
    assert cmp.cstar_delta_ge and cmp.delta_winner == "cstar"
    # (2/sqrt 2)^4 = 4 > 2
    assert cmp.log_distance_ratio_pow_n > cmp.log_count_ratio


def test_compare_product_code_ties():
    rng = np.random.default_rng(131)
    codes = [random_linear_code(rng, 2, 1), random_linear_code(rng, 2, 2)]
    main = product_main_code(codes)
    d = dmin_oracle(construction_cstar(main))
    cmp = compare_cstar_vs_c(main, d, d)
    assert cmp.delta_winner == "tie"


def test_compare_consistent_with_reports():
    rng = np.random.default_rng(137)
    for _ in range(30):
        main = random_linear_main_code(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        cstar = construction_cstar(main)
        assoc = associated_construction_c(main)
        d1, d2 = dmin_oracle(cstar), dmin_oracle(assoc)
        cmp = compare_cstar_vs_c(main, d1, d2)
        r1 = packing_report(cstar, d1)
        r2 = packing_report(assoc, d2)
        assert cmp.cstar_delta_ge == (r1.log_delta >= r2.log_delta - 1e-9)


def test_compare_from_logs_leech():
    cmp = compare_from_logs(24, 32, 16, log2_count_ratio=1.0)
    assert cmp.cstar_delta_ge and cmp.delta_winner == "cstar"


def test_report_json_fields():
    rep = packing_report_from_counts(n=1, L=3, num_points=8, dmin2=1)
    data = rep.as_json()
    assert math.isclose(data["delta"], 1.0) and math.isclose(data["rho"], 1.0)
    assert set(data) == {
        "n",
        "L",
        "dmin2",
        "num_points",
        "log_vol_per_point",
        "log_delta",
        "delta",
        "rho",
        "r_effective",
    }
