"""Random main-code ensembles and the asymptotic packing-efficiency curve.

A main code drawn bit-by-bit with a fair coin induces a q-ary code whose
elements are uniform over Z_q^n and pairwise independent; sharing the
least-significant level across two elements (as an independent-level lift
does) breaks the pairwise independence.  Both effects are measured here
with chi-square tallies on tiny alphabets.  The curve machinery evaluates
the balanced-distance, GVB-equality packing efficiency
sqrt(a1*pi*e) / (sqrt(2) * prod_i 2^H(a1/4^(i-1))) and locates its maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constructions import MainCode
from .gf2 import BinaryCode, enumerate_from_generator

GVB_LEVEL_EPS = 1e-15


@dataclass(frozen=True)
class EnsembleConfig:
    """Sampling recipe: M = 2^ceil(n*L*R) fair-coin words, or a random
    generator with k = ceil(n*L*R) columns in linear mode."""

    n: int
    L: int
    rate: float
    mode: str = "nonlinear-coin"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"rate must be in (0, 1), got {self.rate}")
        if self.mode not in ("nonlinear-coin", "linear-random-generator"):
            raise ValueError(f"unknown sampling mode {self.mode!r}")
        if self.n < 1 or self.L < 1:
            raise ValueError("n and L must be >= 1")

    @property
    def q(self) -> int:
        return 1 << self.L

    @property
    def k(self) -> int:
        return math.ceil(self.n * self.L * self.rate)

    @property
    def num_words(self) -> int:
        return 1 << self.k

    @property
    def realized_rate(self) -> float:
        return self.k / (self.n * self.L)


def _rng(cfg: EnsembleConfig, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((cfg.seed, stream)))


def _random_words(rng: np.random.Generator, count: int, nbits: int) -> list[int]:
    bits = rng.integers(0, 2, size=(count, nbits), dtype=np.uint8)
    weights = 1 << np.arange(nbits, dtype=object)
    return [int(row @ weights) for row in bits]


def sample_main_code(cfg: EnsembleConfig) -> MainCode:
    """Draw a main code; deterministic for a fixed config.

    Nonlinear mode keeps resampling colliding words so the code has
    exactly M distinct words (the coin-flip ensemble allows duplicates,
    but distinct words are needed for the |reps| = M accounting).
    """
    nl = cfg.n * cfg.L
    rng = _rng(cfg, stream=0)
    if cfg.mode == "linear-random-generator":
        cols = _random_words(rng, cfg.k, nl)
        code = enumerate_from_generator(cols, n=nl)
        return MainCode(code, cfg.n, cfg.L)
    words: set[int] = set()
    target = cfg.num_words
    if target > 1 << nl:
        raise ValueError(
            f"cannot draw {target} distinct words of length {nl}"
        )
    while len(words) < target:
        words.update(_random_words(rng, target - len(words), nl))
    return MainCode(BinaryCode(nl, sorted(words)), cfg.n, cfg.L)


def scaled_point_density(cfg: EnsembleConfig) -> tuple[float, float]:
    """Scale a* = 2^(L*R)/q and the resulting point density M/(a*q)^n.

    The density is exactly 1 whenever n*L*R is an integer; the ceil
    rounding of M makes it 2^(ceil(nLR) - nLR) otherwise.
    """
    a_star = 2.0 ** (cfg.L * cfg.rate) / cfg.q
    density = 2.0 ** (cfg.k - cfg.n * cfg.L * cfg.rate)
    return a_star, density


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    dof: int
    p_value: float

    def as_json(self) -> dict:
        return {"statistic": self.statistic, "dof": self.dof, "p_value": self.p_value}


@dataclass(frozen=True)
class ConditionReport:
    trials: int
    cells: int
    marginal_uniform: ChiSquareResult
    pair_independent: ChiSquareResult
    pair_shared_lsb: ChiSquareResult
    a_star: float
    density: float
    schedule: list[dict] = field(default_factory=list)

    def as_json(self) -> dict:
        return {
            "trials": self.trials,
            "cells": self.cells,
            "marginal_uniform": self.marginal_uniform.as_json(),
            "pair_independent": self.pair_independent.as_json(),
            "pair_shared_lsb": self.pair_shared_lsb.as_json(),
            "a_star": self.a_star,
            "density": self.density,
            "schedule": self.schedule,
        }


def _lift_codes(bits: np.ndarray, n: int, L: int) -> np.ndarray:
    """q-ary cell index of fair-coin level bits, shape (trials, L, n)."""
    digits = np.zeros((bits.shape[0], n), dtype=np.int64)
    for i in range(L):
        digits += bits[:, i, :].astype(np.int64) << i
    q = 1 << L
    return digits @ (q ** np.arange(n, dtype=np.int64))


def _chi2_sf(stat: float, dof: int) -> float:
    """Chi-square upper tail Q(dof/2, stat/2) for an integer dof >= 1.

    Abramowitz & Stegun 26.4.4-26.4.5: with x = stat/2 and a = 1/2 for odd
    dof (0 for even), the tail is erfc(sqrt(x)) (odd dof only) plus the
    floor(dof/2) terms e^-x x^(a+j) / Gamma(a+j+1), j = 0, 1, ...  Each
    term is taken from its logarithm, so it underflows to 0 rather than
    overflowing.
    """
    if stat <= 0:
        return 1.0
    x = stat / 2.0
    a = 0.5 * (dof % 2)
    log_x = math.log(x)
    terms = [
        math.exp((a + j) * log_x - x - math.lgamma(a + j + 1.0))
        for j in range(dof // 2)
    ]
    if a:
        terms.append(math.erfc(math.sqrt(x)))
    return min(1.0, math.fsum(terms))


def _chi_square_uniform(counts: np.ndarray) -> ChiSquareResult:
    total = counts.sum()
    expected = total / counts.size
    stat = float(((counts - expected) ** 2 / expected).sum())
    dof = counts.size - 1
    return ChiSquareResult(stat, dof, _chi2_sf(stat, dof))


def _chi_square_independence(table: np.ndarray) -> ChiSquareResult:
    total = table.sum()
    rows = table.sum(axis=1, keepdims=True)
    cols = table.sum(axis=0, keepdims=True)
    expected = rows @ cols / total
    mask = expected > 0
    stat = float(((table - expected)[mask] ** 2 / expected[mask]).sum())
    dof = (table.shape[0] - 1) * (table.shape[1] - 1)
    return ChiSquareResult(stat, dof, _chi2_sf(stat, dof))


def condition_checks(
    cfg: EnsembleConfig, trials: int, schedule_points: int = 5
) -> ConditionReport | None:
    """Empirical tallies of the uniformity and pairwise-independence claims.

    Per trial: two independent fair-coin main codewords give a pair of
    q-ary cells (independent by construction); a third draw shares the
    level-1 word with the first, modelling two elements of an
    independent-level lift that coincide on the least significant level.
    The scaled-period and resolution numbers are reported for a
    q(n) = n^(1/(2R)) growth schedule, not asserted.
    """
    if trials == 0:
        return None
    cells = cfg.q**cfg.n
    if cells * cells > 1 << 16:
        raise ValueError(
            "joint tallies need a tiny alphabet; use n <= 2 and L <= 2"
        )
    rng = _rng(cfg, stream=1)
    bits = rng.integers(0, 2, size=(trials, 3, cfg.L, cfg.n), dtype=np.uint8)
    u = _lift_codes(bits[:, 0], cfg.n, cfg.L)
    v = _lift_codes(bits[:, 1], cfg.n, cfg.L)
    shared = bits[:, 2].copy()
    shared[:, 0, :] = bits[:, 0, 0, :]  # same level-1 word as u
    w = _lift_codes(shared, cfg.n, cfg.L)

    marginal = np.bincount(u, minlength=cells)
    joint_indep = np.bincount(u * cells + v, minlength=cells * cells).reshape(
        cells, cells
    )
    joint_shared = np.bincount(u * cells + w, minlength=cells * cells).reshape(
        cells, cells
    )
    a_star, density = scaled_point_density(cfg)
    schedule = []
    for idx in range(schedule_points):
        n_val = 4 ** (idx + 1)
        q_val = n_val ** (1.0 / (2.0 * cfg.rate))
        schedule.append(
            {
                "n": n_val,
                "q": q_val,
                "period": q_val**cfg.rate,
                "period_over_sqrt_n": q_val**cfg.rate / math.sqrt(n_val),
                "resolution": q_val ** -(1.0 - cfg.rate),
            }
        )
    return ConditionReport(
        trials=trials,
        cells=cells,
        marginal_uniform=_chi_square_uniform(marginal),
        pair_independent=_chi_square_independence(joint_indep),
        pair_shared_lsb=_chi_square_independence(joint_shared),
        a_star=a_star,
        density=density,
        schedule=schedule,
    )


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"entropy argument must be in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


@dataclass(frozen=True)
class GvbCurvePoint:
    alpha1: float
    rho: float
    levels_used: int


def gvb_packing_efficiency(alpha1: float, tol: float = GVB_LEVEL_EPS) -> GvbCurvePoint:
    """Asymptotic packing efficiency at first-level distance fraction alpha1.

    The entropy product over levels alpha1/4^(i-1) is truncated at the
    first level below ``tol``; each omitted factor differs from 1 by less
    than 1e-13 at the default tolerance.
    """
    if not 0.0 < alpha1 <= 0.5:
        raise ValueError(f"alpha1 must be in (0, 0.5], got {alpha1}")
    entropy_sum = 0.0
    levels = 0
    alpha = alpha1
    while alpha >= tol:
        entropy_sum += binary_entropy(alpha)
        alpha /= 4.0
        levels += 1
    rho = math.sqrt(alpha1 * math.pi * math.e) / (
        math.sqrt(2.0) * 2.0**entropy_sum
    )
    return GvbCurvePoint(alpha1=alpha1, rho=rho, levels_used=levels)


def gvb_maximize(
    step: float = 1e-3,
    tol: float = 1e-8,
    lo: float = 1e-4,
    hi: float = 0.5,
) -> tuple[float, float]:
    """Grid scan plus golden-section refinement of the efficiency curve."""
    if step > 1e-3 + 1e-15:
        raise ValueError(f"grid step must be <= 1e-3, got {step}")
    grid = np.minimum(np.arange(lo, hi + step / 2, step), hi)
    values = [gvb_packing_efficiency(float(a)).rho for a in grid]
    best = int(np.argmax(values))
    a = float(grid[max(best - 1, 0)])
    b = float(grid[min(best + 1, len(grid) - 1)])
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - (b - a) * inv_phi
    d = a + (b - a) * inv_phi
    while b - a > tol:
        if gvb_packing_efficiency(c).rho > gvb_packing_efficiency(d).rho:
            b = d
        else:
            a = c
        c = b - (b - a) * inv_phi
        d = a + (b - a) * inv_phi
    alpha_star = (a + b) / 2.0
    return alpha_star, gvb_packing_efficiency(alpha_star).rho
