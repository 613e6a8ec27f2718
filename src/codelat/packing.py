"""Packing density and efficiency of periodic constellations.

Everything runs in the natural-log domain with exact integer squared
distances and point counts, so 24-dimensional powers and counts like 2^36
never overflow; final reals are rendered at the end.  The density formula
Delta = count * V_n * (sqrt(d2)/2)^n / q^n is the sphere-packing fraction
at radius d_min/2 and applies to lattices and nonlattice periodic packings
alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .constructions import PeriodicConstellation
from .geometry import dmin_oracle


def log_unit_ball_volume(n: int) -> float:
    """log V_n = (n/2) log pi - log Gamma(n/2 + 1); V_1 = 2, V_2 = pi."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return (n / 2.0) * math.log(math.pi) - math.lgamma(n / 2.0 + 1.0)


@dataclass(frozen=True)
class PackingReport:
    n: int
    L: int
    dmin2: int
    num_points: int
    log_vol_per_point: float
    log_delta: float
    delta: float
    rho: float
    r_effective: float

    def as_json(self) -> dict:
        return {
            "n": self.n,
            "L": self.L,
            "dmin2": self.dmin2,
            "num_points": self.num_points,
            "log_vol_per_point": self.log_vol_per_point,
            "log_delta": self.log_delta,
            "delta": self.delta,
            "rho": self.rho,
            "r_effective": self.r_effective,
        }


def packing_report_from_counts(
    n: int, L: int, num_points: int, dmin2: int
) -> PackingReport:
    """Packing report for num_points representatives per q^n cell, q = 2^L."""
    if dmin2 < 1:
        raise ValueError(f"squared minimum distance must be >= 1, got {dmin2}")
    if num_points < 1:
        raise ValueError(f"point count must be >= 1, got {num_points}")
    q = 1 << L
    vol_per_point = Fraction(q**n, num_points)
    log_vol = math.log(vol_per_point.numerator) - math.log(vol_per_point.denominator)
    log_vn = log_unit_ball_volume(n)
    log_radius = 0.5 * math.log(dmin2) - math.log(2.0)
    log_delta = log_vn + n * log_radius - log_vol
    if log_delta > 1e-9:
        raise ValueError(
            f"packing density exp({log_delta:.6f}) exceeds 1; "
            "the supplied squared distance cannot be correct"
        )
    log_reff = (log_vol - log_vn) / n
    return PackingReport(
        n=n,
        L=L,
        dmin2=dmin2,
        num_points=num_points,
        log_vol_per_point=log_vol,
        log_delta=log_delta,
        delta=math.exp(log_delta),
        rho=math.exp(log_delta / n),
        r_effective=math.exp(log_reff),
    )


def packing_report(
    constellation: PeriodicConstellation, dmin2: int | None = None
) -> PackingReport:
    """Packing report of a constellation; d^2 from the pair-scan oracle unless given."""
    if dmin2 is None:
        dmin2 = dmin_oracle(constellation)
    return packing_report_from_counts(
        n=constellation.n,
        L=constellation.L,
        num_points=len(constellation),
        dmin2=dmin2,
    )


@dataclass(frozen=True)
class PackingComparison:
    """Which of the joint lift and its independent-level lift packs better.

    The joint lift wins on density iff (d1/d2)^n >= product(|C_i|)/|C|,
    equivalently d1/d2 >= ratio^(1/n) for the efficiency form; both sides
    are carried as logs.
    """

    n: int
    d1_squared: int
    d2_squared: int
    log_distance_ratio_pow_n: float
    log_count_ratio: float
    cstar_delta_ge: bool
    delta_winner: str
    rho_winner: str

    def as_json(self) -> dict:
        return {
            "n": self.n,
            "d1_squared": self.d1_squared,
            "d2_squared": self.d2_squared,
            "log_distance_ratio_pow_n": self.log_distance_ratio_pow_n,
            "log_count_ratio": self.log_count_ratio,
            "cstar_delta_ge": self.cstar_delta_ge,
            "delta_winner": self.delta_winner,
            "rho_winner": self.rho_winner,
        }


def compare_from_logs(
    n: int, d1_squared: int, d2_squared: int, log2_count_ratio: float
) -> PackingComparison:
    """Compare lifts given log2(product(|C_i|) / |C|) directly."""
    lhs = (n / 2.0) * (math.log(d1_squared) - math.log(d2_squared))
    rhs = log2_count_ratio * math.log(2.0)
    ge = lhs >= rhs - 1e-12
    tie = abs(lhs - rhs) <= 1e-12
    winner = "tie" if tie else ("cstar" if ge else "associated_c")
    return PackingComparison(
        n=n,
        d1_squared=d1_squared,
        d2_squared=d2_squared,
        log_distance_ratio_pow_n=lhs,
        log_count_ratio=rhs,
        cstar_delta_ge=bool(ge),
        delta_winner=winner,
        rho_winner=winner,
    )
