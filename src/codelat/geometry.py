"""Distances and symmetry diagnostics for periodic constellations.

Squared Euclidean distances between points of reps + q*Z^n decouple per
coordinate once the free integer translate is minimised, so the centered
residue (the representative of a difference in (-q/2, q/2], ties kept
positive) is the workhorse here: pair scans for minimum distances,
per-coordinate translate counts for exact distance spectra, and the
digit-count decomposition of a coset's distance to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .constructions import (
    MainCode,
    PeriodicConstellation,
    _bit_matrix,
    antiprojection,
    construction_cstar,
)
from .gf2 import BinaryCode, BitWord, as_word

_BLOCK = 4096


@dataclass(frozen=True)
class DistanceSpectrum:
    """Exact neighbor counts N(rep, d) for every squared distance <= R^2."""

    rep: tuple[int, ...]
    radius: float
    entries: dict[int, int]

    def count(self, d2: int) -> int:
        return self.entries.get(d2, 0)

    def as_json(self) -> dict:
        return {
            "rep": list(self.rep),
            "R": self.radius,
            "entries": [
                {"d2": d2, "count": self.entries[d2]} for d2 in sorted(self.entries)
            ],
        }


@dataclass(frozen=True)
class MCounts:
    """Digit-value counts of a main codeword's coordinate L-tuples.

    ``m[i-1]`` counts coordinates whose stacked digit equals i or q - i
    (level 1 least significant), for i = 1..2^(L-1); zero digits are
    uncounted.  The coset's squared distance to zero is sum(i^2 * m_i).
    """

    m: tuple[int, ...]
    n: int
    L: int

    def d2_to_zero(self) -> int:
        return sum((i + 1) ** 2 * cnt for i, cnt in enumerate(self.m))

    def total(self) -> int:
        return sum(self.m)


def centered_residue(value: int, q: int) -> int:
    """Representative of value mod q inside (-q/2, q/2], ties positive."""
    r = value % q
    return r if r <= q // 2 else r - q


def _centered_sq(diff: np.ndarray, q: int) -> np.ndarray:
    r = np.mod(diff, q)
    r = np.where(r > q // 2, r - q, r)
    return r * r


def dmin_oracle(constellation: PeriodicConstellation) -> int:
    """Exact squared minimum distance by blocked pair scan plus the q^2 translate."""
    q = constellation.q
    best = q * q
    reps = constellation.rep_array()
    m = len(reps)
    for i in range(0, m, _BLOCK):
        block = reps[i : i + _BLOCK]
        for j in range(i, m, _BLOCK):
            other = reps[j : j + _BLOCK]
            d2 = _centered_sq(block[:, None, :] - other[None, :, :], q).sum(axis=2)
            if i == j:
                np.fill_diagonal(d2, best)
            val = int(d2.min()) if d2.size else best
            if val < best:
                best = val
    return best


def dmin_formula_c(codes: Sequence[BinaryCode]) -> int:
    """Closed-form squared minimum distance of Construction C from linear codes.

    min over levels of 4^(i-1) * d_H(C_i), levels whose code has no nonzero
    word contributing nothing, capped by the pure translate 4^L.
    """
    L = len(codes)
    if L == 0:
        raise ValueError("need at least one level code")
    best = 4**L
    for i, code in enumerate(codes):
        if code.linear is not True:
            raise ValueError("the distance formula requires verified-linear codes")
        if code.contains_nonzero():
            best = min(best, (4**i) * code.min_nonzero_weight())
    return best


def mcounts(word, n: int, L: int) -> MCounts:
    """Digit-value counts of a main codeword (see MCounts)."""
    w = word.bits if isinstance(word, BitWord) else int(word)
    q = 1 << L
    half = 1 << (L - 1)
    counts = [0] * half
    mask = (1 << n) - 1
    levels = [(w >> (i * n)) & mask for i in range(L)]
    for j in range(n):
        digit = sum(((levels[i] >> j) & 1) << i for i in range(L))
        if digit == 0:
            continue
        v = digit if digit <= half else q - digit
        counts[v - 1] += 1
    return MCounts(m=tuple(counts), n=n, L=L)


def dmin_to_zero(obj: PeriodicConstellation | MainCode) -> int:
    """Squared distance from zero to the nearest other constellation point.

    Evaluated as min(q^2, min over nonzero reps of the centered-residue
    norm), which equals the top-digit form ||2^(L-1) c_L - sum 2^(i-1) c_i||^2.
    """
    constellation = (
        construction_cstar(obj) if isinstance(obj, MainCode) else obj
    )
    q = constellation.q
    best = q * q
    for rep in constellation.reps:
        if all(c == 0 for c in rep):
            continue
        best = min(best, sum(min(c * c, (q - c) * (q - c)) for c in rep))
    return best


def dmin_to_zero_structured(
    prefixes: Iterable[tuple[Sequence[int], int]],
    n: int,
    L: int,
    chunk: int = 8192,
) -> int:
    """Exact distance to zero when the last level ranges over a parity coset.

    Each prefix fixes the level words c_1..c_{L-1} (int-packed) plus the
    required parity of the last-level word.  Per coordinate the target
    t = sum 2^(i-1) c_i costs t^2 with last bit 0 and (2^(L-1) - t)^2 with
    last bit 1; independent coordinate minimisation plus a single
    cheapest-coordinate parity repair is exact because only the parity
    couples coordinates.  The zero coset contributes its best nonzero
    point.  The result is capped by the pure translate q^2.
    """
    if L < 1:
        raise ValueError("need at least one level")
    q = 1 << L
    half = 1 << (L - 1)
    best = q * q
    batch: list[tuple[Sequence[int], int]] = []
    saw_any = False

    def flush(batch: list[tuple[Sequence[int], int]]) -> int:
        nonlocal best
        parities = np.array([p for _, p in batch], dtype=np.int64)
        levels = np.array([lv for lv, _ in batch], dtype=np.uint64)
        t = np.zeros((len(batch), n), dtype=np.int64)
        for i in range(levels.shape[1]):
            t += _bit_matrix(levels[:, i], n) << i
        cost0 = t * t
        cost1 = (half - t) ** 2
        base = np.minimum(cost0, cost1).sum(axis=1)
        chose1 = (cost1 < cost0).astype(np.int64)
        penalty = np.abs(cost1 - cost0)
        need_fix = (chose1.sum(axis=1) & 1) != (parities & 1)
        totals = base + np.where(need_fix, penalty.min(axis=1), 0)
        # the zero coset's optimum is the zero point itself; replace it by
        # the best nonzero choice: a q-translate or the two cheapest flips
        for row in np.nonzero(totals == 0)[0]:
            alts = [q * q]
            if n >= 2:
                two = np.sort(penalty[row])[:2]
                alts.append(int(two[0] + two[1]))
            totals[row] = min(alts)
        return int(totals.min())

    for prefix in prefixes:
        saw_any = True
        batch.append(prefix)
        if len(batch) >= chunk:
            best = min(best, flush(batch))
            batch = []
    if batch:
        best = min(best, flush(batch))
    if not saw_any:
        raise ValueError("prefix set is empty")
    return min(best, q * q)


def dmin_lower_bound_2level(dh1: int, dh2: int) -> int:
    """Two-level heuristic floor min(4*d_H(C_2) - 3*d_H(C_1), 16)."""
    if dh2 <= dh1:
        raise ValueError(
            f"bound requires d_H(C_2) > d_H(C_1), got {dh2} <= {dh1}"
        )
    return min(4 * dh2 - 3 * dh1, 16)


def dmin_upper_bound_antiprojection(main: MainCode) -> int:
    """Upper bound from antiprojections at zero: each nonzero word of
    S_i(0) places a constellation point 2^(i-1) * s next to zero."""
    zeros = [0] * (main.L - 1)
    best = 4**main.L
    for i in range(1, main.L + 1):
        s_i = antiprojection(main, i, zeros)
        if s_i.contains_nonzero():
            best = min(best, (4 ** (i - 1)) * s_i.min_nonzero_weight())
    return best


@lru_cache(maxsize=65536)
def _coordinate_poly(residue: int, q: int, r2: int) -> tuple[int, ...]:
    """Counts of (residue + q*z)^2 values up to r2, indexed by squared value."""
    out = [0] * (r2 + 1)
    reach = math.isqrt(r2)
    z_lo = -((reach + residue) // q)
    z_hi = (reach - residue) // q
    for z in range(z_lo, z_hi + 1):
        v = residue + q * z
        if v * v <= r2:
            out[v * v] += 1
    return tuple(out)


def _residue_spectrum(residue: tuple[int, ...], q: int, r2: int) -> np.ndarray:
    """Distance-squared counts to all translates of a fixed residue class."""
    acc = np.zeros(r2 + 1, dtype=np.int64)
    acc[0] = 1
    for r in residue:
        poly = np.array(_coordinate_poly(r, q, r2), dtype=np.int64)
        acc = np.convolve(acc, poly)[: r2 + 1]
    return acc


def _all_rep_spectra(
    constellation: PeriodicConstellation, r2: int
) -> np.ndarray:
    """Row r = summed spectra from rep r to every rep's translate class."""
    q, n = constellation.q, constellation.n
    reps = constellation.rep_array()
    m = len(reps)
    weights = q ** np.arange(n, dtype=np.int64)
    code_rows = np.empty((m, m), dtype=np.int64)
    for i in range(0, m, _BLOCK):
        block = reps[i : i + _BLOCK]
        diffs = np.mod(reps[None, :, :] - block[:, None, :], q)
        code_rows[i : i + _BLOCK] = diffs @ weights
    uniq, inverse = np.unique(code_rows, return_inverse=True)
    inverse = inverse.reshape(m, m)
    table = np.zeros((len(uniq), r2 + 1), dtype=np.int64)
    for idx, ucode in enumerate(uniq):
        residue = tuple(int(ucode // q**j % q) for j in range(n))
        table[idx] = _residue_spectrum(residue, q, r2)
    counts = np.zeros((m, len(uniq)), dtype=np.int64)
    for i in range(m):
        counts[i] = np.bincount(inverse[i], minlength=len(uniq))
    spectra = counts @ table
    spectra[:, 0] -= 1  # drop each rep's own zero-distance point
    return spectra


def distance_spectrum(
    constellation: PeriodicConstellation, rep: Sequence[int], radius: float
) -> DistanceSpectrum:
    """Exact N(rep, d) for all d <= radius, counting every translate."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    if constellation.n > 16:
        raise ValueError("spectrum enumeration budget supports n <= 16")
    rep_t = tuple(int(c) for c in rep)
    if not constellation.has_rep(rep_t):
        raise ValueError(f"{rep_t} is not a representative of the constellation")
    q = constellation.q
    r2 = int(radius * radius + 1e-9)
    acc = np.zeros(r2 + 1, dtype=np.int64)
    for other in constellation.reps:
        residue = tuple((o - r) % q for o, r in zip(other, rep_t))
        acc += _residue_spectrum(residue, q, r2)
    acc[0] -= 1
    entries = {int(d2): int(c) for d2, c in enumerate(acc) if c and d2 > 0}
    return DistanceSpectrum(rep=rep_t, radius=float(radius), entries=entries)


def eds_check(
    constellation: PeriodicConstellation, radius: float | None = None
) -> tuple[bool, dict | None]:
    """Whether all representatives share the same distance spectrum up to radius.

    Defaults to radius 2q.  On failure returns a witness at the smallest
    differing squared distance: the first rep attaining the largest count
    and the last rep attaining the smallest.
    """
    if radius is None:
        radius = 2 * constellation.q
    r2 = int(radius * radius + 1e-9)
    spectra = _all_rep_spectra(constellation, r2)
    if (spectra == spectra[0]).all():
        return True, None
    differing = np.nonzero((spectra != spectra[0]).any(axis=0))[0]
    d2 = int(differing[0])
    col = spectra[:, d2]
    hi = int(np.argmax(col))
    lo = len(col) - 1 - int(np.argmin(col[::-1]))
    return False, {
        "d2": d2,
        "rep_max": list(constellation.reps[hi]),
        "count_max": int(col[hi]),
        "rep_min": list(constellation.reps[lo]),
        "count_min": int(col[lo]),
    }


def equi_min_distance_check(
    constellation: PeriodicConstellation,
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether every representative sees a neighbor at the global minimum."""
    q = constellation.q
    reps = constellation.rep_array()
    m = len(reps)
    per_rep = np.full(m, q * q, dtype=np.int64)
    for i in range(0, m, _BLOCK):
        block = reps[i : i + _BLOCK]
        d2 = _centered_sq(block[:, None, :] - reps[None, :, :], q).sum(axis=2)
        rows = np.arange(i, min(i + _BLOCK, m))
        d2[rows - i, rows] = q * q
        per_rep[rows] = np.minimum(per_rep[rows], d2.min(axis=1))
    global_min = int(per_rep.min())
    bad = np.nonzero(per_rep != global_min)[0]
    if len(bad) == 0:
        return True, None
    return False, constellation.reps[int(bad[0])]


def isometry_orbit_check(
    constellation: PeriodicConstellation,
    base_point: Sequence[int],
    sign_pattern,
) -> bool:
    """Whether y -> T(y - base_point) maps the constellation onto itself.

    T flips the sign of every coordinate where the pattern has a 1.  The
    map sends base_point to zero, so a True result certifies a symmetry of
    the constellation carrying base_point to the origin.
    """
    pattern = as_word(sign_pattern, constellation.n)
    if pattern.n != constellation.n:
        raise ValueError("sign pattern dimension mismatch")
    q = constellation.q
    x0 = tuple(int(c) for c in base_point)
    if len(x0) != constellation.n:
        raise ValueError("base point dimension mismatch")
    signs = [-1 if b else 1 for b in pattern]
    image = set()
    for rep in constellation.reps:
        image.add(tuple((s * (r - x)) % q for s, r, x in zip(signs, rep, x0)))
    return image == set(constellation.reps)
