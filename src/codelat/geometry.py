"""Distances and symmetry diagnostics for periodic constellations.

Squared Euclidean distances between points of reps + q*Z^n decouple per
coordinate once the free integer translate is minimised, so the centered
residue (the representative of a difference in (-q/2, q/2], ties kept
positive) is the workhorse here: pair scans for minimum distances,
per-coordinate translate counts for exact distance spectra, and the
per-coordinate costs of a coset's distance to zero.
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
    _lane_sub,
    antiprojection,
    construction_cstar,
    rep_keys,
)
from .gf2 import BinaryCode, as_word, gf2_min_weight

_BLOCK = 1024  # pair tiles of _BLOCK/16 x 4*_BLOCK; spectrum blocks of ~_BLOCK^2 keys
_KEY_BITS = 63  # one composition-key chunk fills a nonnegative int64


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


def _tile() -> tuple[int, int]:
    """Rows x columns of one pair tile: 64 x 4096 at _BLOCK = 1024."""
    return -(-_BLOCK // 16), 4 * _BLOCK


def _lane_chunks(reps: np.ndarray, L: int) -> tuple[np.ndarray, np.uint16]:
    """Lane-packed chunk keys of the rows of ``reps`` (coordinates in [0, 2^L)).

    The coordinates are cut into chunks of min(16 // L, n) L-bit lanes, each
    chunk packed into one uint16 (``rep_keys`` of its columns).  Returns the
    (chunks, len(reps)) keys and the mask of every lane's top bit, for
    ``_lane_sub``.  A short last chunk's missing lanes read as residue 0.
    """
    n = reps.shape[1]
    lanes = min(16 // L, n)
    cols = reps.T
    keys = np.array([rep_keys(cols[s : s + lanes], 1 << L) for s in range(0, n, lanes)])
    high = sum(1 << (j * L + L - 1) for j in range(lanes))
    return keys.astype(np.uint16), np.uint16(high)


def _lane_table(weights: np.ndarray, high: np.uint16) -> np.ndarray:
    """Per-residue ``weights`` (length 2^L, weights[0] = 0) summed over the
    lanes (the set bits of ``high``) of every chunk difference: q^lanes <=
    2^16 entries of the weights' dtype."""
    table = np.zeros(1, dtype=weights.dtype)
    for _ in range(int(high).bit_count()):  # one more lane, most significant
        table = np.add.outer(weights, table).ravel()
    return table


def _pair_sums(
    a: np.ndarray, b: np.ndarray, table: np.ndarray, high: np.uint16, out: np.ndarray
) -> None:
    """out[i, j] = sum over chunks k of table[(a[k, i] - b[k, j]) mod q lane-wise].

    ``a`` and ``b`` are chunk keys from ``_lane_chunks``, ``table`` a
    ``_lane_table`` of out's dtype.  Each chunk of a pair costs one
    ``_lane_sub`` and one ``take``; pairs go in tiles of ``_tile()``, so
    the temporaries stay tile-sized.
    """
    rows, cols = _tile()
    part = np.empty(min(rows, len(out)) * min(cols, out.shape[1]), dtype=out.dtype)
    for r in range(0, len(out), rows):
        for s in range(0, out.shape[1], cols):
            tile = out[r : r + rows, s : s + cols]
            sums = part[: tile.size].reshape(tile.shape)
            for k in range(len(a)):
                diff = _lane_sub(a[k, r : r + rows, None], b[k, s : s + cols], high)
                # every index is in range; mode "raise" would also copy
                # into a temporary
                table.take(diff, out=sums if k else tile, mode="clip")
                if k:
                    tile += sums


def _nearest_sq(constellation: PeriodicConstellation) -> np.ndarray:
    """Each rep's squared distance to its nearest other point, capped at q^2.

    Walks the upper triangle of the rep pairs in ``_tile()`` tiles; a
    pair's distance is the ``_pair_sums`` of the centered squares
    min(r, q - r)^2, r = (a_j - b_j) mod q.  Tiles, table and result use
    the narrowest of uint8, uint16 and int64 that holds both the cap q^2
    and the largest sum n * (q/2)^2.
    """
    q, n, L = constellation.q, constellation.n, constellation.L
    top = max(q * q, n * (q // 2) ** 2)
    dtype = np.uint8 if top < 1 << 8 else np.uint16 if top < 1 << 16 else np.int64
    keys, high = _lane_chunks(constellation.array, L)
    residues = np.arange(q)
    table = _lane_table((np.minimum(residues, q - residues) ** 2).astype(dtype), high)
    m = keys.shape[1]
    rows, cols = _tile()
    nearest = np.full(m, q * q, dtype=dtype)
    buf = np.empty(min(rows, m) * min(cols, m), dtype=dtype)
    for i in range(0, m, rows):
        a = keys[:, i : i + rows]
        for j in range(i, m, cols):
            b = keys[:, j : j + cols]
            d2 = buf[: a.shape[1] * b.shape[1]].reshape(a.shape[1], b.shape[1])
            _pair_sums(a, b, table, high, d2)
            if i == j:
                np.fill_diagonal(d2, q * q)
            row_min, col_min = nearest[i : i + len(d2)], nearest[j : j + d2.shape[1]]
            np.minimum(row_min, d2.min(axis=1), out=row_min)
            np.minimum(col_min, d2.min(axis=0), out=col_min)
    return nearest


def dmin_oracle(constellation: PeriodicConstellation) -> int:
    """Exact squared minimum distance by blocked pair scan plus the q^2 translate."""
    return int(_nearest_sq(constellation).min())


def dmin_formula_levels(weights: Sequence[int | None]) -> int:
    """min(4^L, min over levels i of 4^(i-1) * w_i) for L level codes, w_i
    the minimum nonzero weight of the i-th (None: the level is {0} and
    contributes nothing).  On the level codes of Construction C it is
    d_min^2, on the projection codes of a main code the associated lift's
    d_min^2, and on its zero antiprojections an upper bound on the C*
    lift's d_min^2.
    """
    return min([4 ** len(weights)] + [4**i * w for i, w in enumerate(weights) if w is not None])


def dmin_formula_c(codes: Sequence[BinaryCode]) -> int:
    """Closed-form squared minimum distance of Construction C from linear
    codes: ``dmin_formula_levels`` of their bases' minimum weights."""
    if not codes:
        raise ValueError("need at least one level code")
    if not all(code.linear for code in codes):
        raise ValueError("the distance formula requires verified-linear codes")
    return dmin_formula_levels([gf2_min_weight(code.basis()) for code in codes])


def dmin_to_zero(obj: PeriodicConstellation | MainCode) -> int:
    """Squared distance from zero to the nearest other constellation point.

    Evaluated as min(q^2, min over nonzero reps of the centered-residue
    norm), which equals the top-digit form ||2^(L-1) c_L - sum 2^(i-1) c_i||^2.
    """
    constellation = construction_cstar(obj) if isinstance(obj, MainCode) else obj
    q = constellation.q
    reps = constellation.array
    norms = (np.minimum(reps, q - reps) ** 2).sum(axis=1)
    return int(np.where(reps.any(axis=1), norms, q * q).min())


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


def dmin_upper_bound_antiprojection(main: MainCode) -> int:
    """Upper bound from antiprojections at zero, for a main code containing
    0: each nonzero word s of S_i(0) places a constellation point
    2^(i-1) * s next to zero.  ``dmin_formula_levels`` of their minimum
    weights, read off the generators (``antiprojection_zero_bases``) for a
    linear code and from the enumerated S_i(0) otherwise."""
    if main.linear:
        return dmin_formula_levels([gf2_min_weight(b) for b in main.antiprojection_zero_bases()])
    zeros = [0] * (main.L - 1)
    anti = [antiprojection(main, i, zeros) for i in range(1, main.L + 1)]
    return dmin_formula_levels([s.min_nonzero_weight() if s.words.any() else None for s in anti])


@lru_cache(maxsize=65536)
def _coordinate_poly(residue: int, q: int, r2: int) -> tuple[int, ...]:
    """The squares (residue + q*z)^2 <= r2 over all integers z, one per z."""
    reach = math.isqrt(r2)
    z_lo = -((reach + residue) // q)
    z_hi = (reach - residue) // q
    squares = ((residue + q * z) ** 2 for z in range(z_lo, z_hi + 1))
    return tuple(v for v in squares if v <= r2)


def _residue_spectrum(residue: tuple[int, ...], q: int, r2: int) -> np.ndarray:
    """Distance-squared counts to all translates of a fixed residue class.

    Each coordinate multiplies the count polynomial by a sum of about
    2*sqrt(r2)/q monomials x^s: one shifted add per square s.
    """
    acc = np.zeros(r2 + 1, dtype=np.int64)
    acc[0] = 1
    for r in residue:
        nxt = np.zeros_like(acc)
        for s in _coordinate_poly(r, q, r2):
            nxt[s:] += acc[: r2 + 1 - s]
        acc = nxt
    return acc


def _composition_weights(n: int, q: int) -> list[np.ndarray]:
    """Per-residue int64 weights whose sums over n coordinates key a residue
    composition: how many coordinates have each centered magnitude min(r, q - r).

    The magnitudes 1..q/2 are cut into chunks [lo, lo + width) with
    (n + 1)^width <= 2^_KEY_BITS; in its chunk's table magnitude v weighs
    (n + 1)^(v - lo), so a chunk's sum is the base-(n + 1) number of its
    counts and fits an int64.  Magnitude 0 weighs nothing: its count is n
    minus the others.  One chunk covers L <= 4 up to n = 233 and L = 5 up
    to n = 14.
    """
    width = 1
    while (n + 1) ** (width + 1) <= 1 << _KEY_BITS:
        width += 1
    mags = [min(r, q - r) for r in range(q)]
    return [
        np.array([(n + 1) ** (v - lo) if lo <= v < lo + width else 0 for v in mags], dtype=np.int64)
        for lo in range(1, q // 2 + 1, width)
    ]


def _densify(key: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Overwrite ``key`` with dense ids 0..u-1 of its distinct values, in
    sorted order, and return one flat index of each.

    ``key`` is non-negative.  When its range fits in ``scratch``'s length
    the ids come from an occupancy table held there, with no sort;
    otherwise from a sort.  Neither path allocates a new block-sized
    array but the sort's argsort permutation.
    """
    flat = key.reshape(-1)
    width = int(flat.max()) + 1
    if width <= len(flat):
        return _densify_by_table(flat, scratch.reshape(-1)[:width])
    return _densify_by_sort(flat, scratch.reshape(-1))


def _densify_by_table(flat: np.ndarray, table: np.ndarray) -> np.ndarray:
    """_densify of keys below len(table): ``table`` first holds one position
    of each key (-1 where absent; whichever write of a repeated key lands
    is a valid position), then each key's id.  Positions and ids go
    through slices of the keys, so the temporaries stay slice-sized."""
    step = max(_BLOCK, _BLOCK * _BLOCK // 16)
    table.fill(-1)
    for s in range(0, len(flat), step):
        part = flat[s : s + step]
        table[part] = np.arange(s, s + len(part))
    seen = table >= 0
    first = table[seen]
    np.cumsum(seen, out=table)
    table -= 1
    for s in range(0, len(flat), step):
        part = flat[s : s + step]
        part[:] = table[part]
    return first


def _densify_by_sort(flat: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """_densify by np.unique(return_inverse=True) with the sorted copy kept
    in ``scratch`` and the ids written back into ``flat``."""
    perm = np.argsort(flat)
    ids = np.take(flat, perm, out=scratch, mode="clip")
    new = np.empty(len(flat), dtype=bool)
    new[0] = True
    np.not_equal(ids[1:], ids[:-1], out=new[1:])
    np.cumsum(new, out=ids)
    ids -= 1
    flat[perm] = ids
    return perm[new]


def _spectra(constellation: PeriodicConstellation, rows: np.ndarray, r2: int) -> np.ndarray:
    """Row k: distance-squared counts up to r2 from rows[k] to every point.

    ``rows`` are reps; each one's own zero-distance point is not counted.
    The spectrum of a difference (rep - row) mod q depends only on its
    residue composition, which (row - rep) mod q shares.  Each row block
    holds about _BLOCK^2 int64 composition keys, the ``_pair_sums`` of each
    _composition_weights chunk (the keys of several chunks are merged through their dense ids),
    and each distinct composition of a block, at most C(n + q/2, q/2) of
    them, is expanded once into its residue spectrum.
    """
    q, L = constellation.q, constellation.L
    reps = constellation.array
    m = len(reps)
    rep_chunks, high = _lane_chunks(reps, L)
    row_chunks, _ = _lane_chunks(rows, L)
    step = max(1, _BLOCK * _BLOCK // m)
    chunks = _composition_weights(constellation.n, q)
    shape = (min(step, len(rows)), m)
    part_buf = np.empty(shape, dtype=np.int64)
    key_buf = np.empty(shape, dtype=np.int64)
    spectra = np.empty((len(rows), r2 + 1), dtype=np.int64)
    for i in range(0, len(rows), step):
        block = rows[i : i + step]
        size = len(block)
        part, key = part_buf[:size], key_buf[:size]
        for c, weights in enumerate(chunks):
            sums = _lane_table(weights, high)
            _pair_sums(row_chunks[:, i : i + step], rep_chunks, sums, high, key)
            if c:  # pair this chunk's ids with the composition so far
                _densify(key, part)
                key += before * (key.max() + 1)
            first = _densify(key, part)
            before = key.copy() if c + 1 < len(chunks) else None
        row, col = np.divmod(first, m)
        residues = (reps[col] - block[row]) & (q - 1)
        table = np.array([_residue_spectrum(r, q, r2) for r in residues.tolist()])
        key += len(first) * np.arange(size)[:, None]
        counts = np.bincount(key.reshape(-1), minlength=size * len(first))
        spectra[i : i + step] = counts.reshape(size, len(first)) @ table
    spectra[:, 0] -= 1
    return spectra


def distance_spectrum(
    constellation: PeriodicConstellation, rep: Sequence[int], radius: float
) -> DistanceSpectrum:
    """Exact N(rep, d) for all d <= radius, counting every translate."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    rep_t = tuple(int(c) for c in rep)
    if not constellation.has_rep(rep_t):
        raise ValueError(f"{rep_t} is not a representative of the constellation")
    r2 = int(radius * radius + 1e-9)
    acc = _spectra(constellation, np.array([rep_t], dtype=np.int64), r2)[0]
    entries = {int(d2): int(c) for d2, c in enumerate(acc) if c and d2 > 0}
    return DistanceSpectrum(rep=rep_t, radius=float(radius), entries=entries)


def eds_check(
    constellation: PeriodicConstellation, radius: float | None = None
) -> tuple[bool, dict | None]:
    """Whether all representatives share the same distance spectrum up to radius.

    Defaults to radius 2q; a radius below 1 is an error, as in
    ``distance_spectrum``.  On failure returns a witness at the smallest
    differing squared distance: the first rep attaining the largest count
    and the last rep attaining the smallest.
    """
    if radius is None:
        radius = 2 * constellation.q
    if radius < 1:
        raise ValueError("radius must be >= 1")
    r2 = int(radius * radius + 1e-9)
    spectra = _spectra(constellation, constellation.array, r2)
    if (spectra == spectra[0]).all():
        return True, None
    differing = np.nonzero((spectra != spectra[0]).any(axis=0))[0]
    d2 = int(differing[0])
    col = spectra[:, d2]
    hi = int(np.argmax(col))
    lo = len(col) - 1 - int(np.argmin(col[::-1]))
    return False, {
        "d2": d2,
        "rep_max": constellation.array[hi].tolist(),
        "count_max": int(col[hi]),
        "rep_min": constellation.array[lo].tolist(),
        "count_min": int(col[lo]),
    }


def equi_min_distance_check(
    constellation: PeriodicConstellation,
) -> tuple[bool, tuple[int, ...] | None]:
    """Whether every representative sees a neighbor at the global minimum."""
    per_rep = _nearest_sq(constellation)
    bad = np.nonzero(per_rep != per_rep.min())[0]
    if len(bad) == 0:
        return True, None
    return False, tuple(constellation.array[bad[0]].tolist())


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
    x0 = [int(c) % q for c in base_point]
    if len(x0) != constellation.n:
        raise ValueError("base point dimension mismatch")
    reps = constellation.array
    shifted = reps - np.array(x0)
    image = np.where(np.array(pattern.to_tuple(), dtype=bool), -shifted, shifted) % q
    # the map is a bijection mod q, so equal sorted rows mean equal sets
    return np.array_equal(image[np.lexsort(image.T[::-1])], reps)
