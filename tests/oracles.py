"""Independent brute-force oracles for cross-checking library paths.

Everything here enumerates actual constellation points (translate boxes,
explicit pair loops, plain Python sets) and deliberately avoids the
library's centered-residue and convolution shortcuts.
"""

from __future__ import annotations

import itertools
import math
import time
from typing import Sequence

import mpmath as mp
import numpy as np

from codelat.catalog import golay_b_matrix
from codelat.constructions import (
    KEY_BITS,
    MainCode,
    PeriodicConstellation,
    projection_codes,
    rep_keys,
)
from codelat.gf2 import (
    BinaryCode,
    BitWord,
    LengthMismatchError,
    as_word,
    enumerate_from_generator,
)
from codelat.latticeness import (
    DEFAULT_PAIR_BUDGET,
    INCONCLUSIVE,
    LATTICE,
    NOT_LATTICE,
    BudgetExceededError,
    LatticenessReport,
)
from codelat.packing import PackingComparison, compare_from_logs


def oracle_nearest_squared(constellation: PeriodicConstellation) -> list[int]:
    """Per rep, the least |r2 + q*dz - r1|^2 over other points, capped at q^2.

    dz ranges over {-1, 0, 1} on the coordinates where r1 and r2 differ and
    is 0 elsewhere.  That box holds every nearest translate of a rep in
    [0, q)^n; a nonzero dz_j where the two agree costs q^2 on its own, no
    less than the cap, which the pure translates q*e_j attain.
    """
    q = constellation.q
    nearest = []
    for i, r1 in enumerate(constellation.reps):
        best = q * q
        for j, r2 in enumerate(constellation.reps):
            if i == j:
                continue
            deltas = [b - a for a, b in zip(r1, r2) if a != b]
            for dz in itertools.product((-1, 0, 1), repeat=len(deltas)):
                best = min(best, sum((d + q * z) ** 2 for d, z in zip(deltas, dz)))
        nearest.append(best)
    return nearest


def oracle_min_distance_squared(constellation: PeriodicConstellation) -> int:
    """Min over pairs (r1, r2 + q*dz) with dz in {-1, 0, 1}^n, plus q^2."""
    return min(oracle_nearest_squared(constellation))


def oracle_spectrum(
    constellation: PeriodicConstellation, rep, radius: float
) -> dict[int, int]:
    """Counts of points within the radius by explicit translate enumeration."""
    q, n = constellation.q, constellation.n
    base = np.array(rep, dtype=np.int64)
    r2 = int(radius * radius + 1e-9)
    reach = math.isqrt(r2)
    counts: dict[int, int] = {}
    for other in constellation.reps:
        ranges = []
        for j in range(n):
            delta = other[j] - base[j]
            lo = -((reach + delta) // q)
            hi = (reach - delta) // q
            ranges.append(range(lo, hi + 1))
        for z in itertools.product(*ranges):
            d2 = sum(
                (other[j] - base[j] + q * z[j]) ** 2 for j in range(n)
            )
            if 0 < d2 <= r2:
                counts[d2] = counts.get(d2, 0) + 1
    return counts


def oracle_eds(constellation: PeriodicConstellation, radius: float):
    """eds_check's verdict and witness, re-derived from oracle_spectrum."""
    P = constellation
    spectra = [oracle_spectrum(P, rep, radius) for rep in P.reps]
    if all(s == spectra[0] for s in spectra):
        return True, None
    d2 = min(d for d in set().union(*spectra) if len({s.get(d, 0) for s in spectra}) > 1)
    col = [s.get(d2, 0) for s in spectra]
    hi = col.index(max(col))
    lo = len(col) - 1 - col[::-1].index(min(col))
    return False, {
        "d2": d2,
        "rep_max": list(P.reps[hi]),
        "count_max": col[hi],
        "rep_min": list(P.reps[lo]),
        "count_min": col[lo],
    }


def oracle_is_lattice(constellation: PeriodicConstellation) -> bool:
    """Plain-Python group test on the rep set."""
    q, n = constellation.q, constellation.n
    reps = set(constellation.reps)
    if tuple([0] * n) not in reps:
        return False
    for a in reps:
        for b in reps:
            if tuple((x - y) % q for x, y in zip(a, b)) not in reps:
                return False
    return True


def brute_rows_oracle(
    constellation: PeriodicConstellation, budget: int = DEFAULT_PAIR_BUDGET
) -> LatticenessReport:
    """The brute group test one row of differences at a time.

    Each row takes (a - reps) mod q, folds it into base-q keys and looks
    them up with ``searchsorted``; past n*L = 64 it asks ``has_rep`` per
    difference.  Same verdict, witness and ``pairs_scanned`` contract as
    ``brute_closure_oracle``.
    """
    t0 = time.perf_counter()
    q, n = constellation.q, constellation.n
    reps = constellation.array
    m = len(reps)
    if m * m > budget:
        raise BudgetExceededError(
            f"{m}^2 pairs exceed the scan budget {budget}"
        )
    zero = tuple([0] * n)
    if not constellation.has_rep(zero):
        return LatticenessReport(
            verdict=NOT_LATTICE,
            method="brute",
            witness={"missing_zero": True},
            pairs_scanned=0,
            elapsed_ms=(time.perf_counter() - t0) * 1e3,
        )
    # keys of the sorted reps come out sorted
    keys = rep_keys(reps.T, q) if n * constellation.L <= KEY_BITS else None
    pairs = 0
    for i in range(m):
        diffs = np.mod(reps[i][None, :] - reps, q)
        pairs += m
        if keys is None:
            ok = np.array([constellation.has_rep(tuple(r)) for r in diffs.tolist()], dtype=bool)
        else:
            dkeys = rep_keys(diffs.T, q)
            ok = keys[np.minimum(np.searchsorted(keys, dkeys), m - 1)] == dkeys
        if not ok.all():
            j = int(np.argmin(ok))
            return LatticenessReport(
                verdict=NOT_LATTICE,
                method="brute",
                witness={
                    "a": [int(c) for c in reps[i]],
                    "b": [int(c) for c in reps[j]],
                    "difference": [int(c) for c in diffs[j]],
                },
                pairs_scanned=pairs,
                elapsed_ms=(time.perf_counter() - t0) * 1e3,
            )
    return LatticenessReport(
        verdict=LATTICE,
        method="brute",
        pairs_scanned=pairs,
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
    )


def oracle_pairwise_min_hamming(words: list[int]) -> int:
    return min(
        (words[i] ^ words[j]).bit_count()
        for i in range(len(words))
        for j in range(i + 1, len(words))
    )


def oracle_split(word: int, n: int, L: int) -> tuple[int, ...]:
    mask = (1 << n) - 1
    return tuple((word >> (i * n)) & mask for i in range(L))


def oracle_projection_sets(words: list[int], n: int, L: int) -> list[set[int]]:
    """Level-i word sets of a main code, from a plain loop over its words."""
    return [{oracle_split(w, n, L)[i] for w in words} for i in range(L)]


def oracle_antiprojection_set(
    words: list[int], n: int, L: int, level: int, fixed: list[int]
) -> set[int]:
    """Level words whose main word matches ``fixed`` at every other level."""
    hits = set()
    for w in words:
        parts = list(oracle_split(w, n, L))
        hit = parts.pop(level - 1)
        if parts == fixed:
            hits.add(hit)
    return hits


def oracle_greedy_chain_basis(codes: list[BinaryCode]) -> tuple[list[int], list[int]]:
    """Construction D's chain basis by its definition: each level's words in
    sorted order, kept when independent of those kept so far."""
    basis: list[int] = []
    reduced: list[int] = []
    ks: list[int] = []
    for code in codes:
        for w in sorted(code.words.tolist()):
            cur = w
            for b in reduced:
                cur = min(cur, cur ^ b)
            if cur:
                basis.append(w)
                reduced.append(cur)
        ks.append(len(basis))
    return basis, ks


def oracle_product_words(level_words: list[list[int]], n: int) -> set[int]:
    """Main words of the Cartesian product of the level word lists."""
    return {
        sum(w << (i * n) for i, w in enumerate(combo))
        for combo in itertools.product(*level_words)
    }


def carry_identity_check(x: BitWord, y: BitWord) -> bool:
    """Self-test of the integer split x + y = (x XOR y) + 2*(x AND y).

    Checked coordinatewise with plain integer arithmetic; must hold for
    every pair of equal-length words.
    """
    if x.n != y.n:
        raise LengthMismatchError(f"word lengths differ: {x.n} vs {y.n}")
    return all(x[j] + y[j] == (x[j] ^ y[j]) + 2 * (x[j] & y[j]) for j in range(x.n))


def golay_syndrome(word) -> int:
    """Syndrome H*c with H = (B | I); zero exactly on Golay codewords."""
    w = as_word(word, 24).bits
    b = golay_b_matrix()
    low = w & 0xFFF
    high = (w >> 12) & 0xFFF
    syndrome = 0
    for r in range(12):
        acc = 0
        for j in range(12):
            if b[r][j]:
                acc ^= (low >> j) & 1
        acc ^= (high >> r) & 1
        syndrome |= acc << r
    return syndrome


def oracle_leech_contains(word) -> bool:
    """Membership in the Leech main code from its structure: c1 all-zeros or
    all-ones, c2 a Golay codeword (zero syndrome), and c3 of odd weight
    exactly when c1 is all-ones."""
    w = as_word(word, 72).bits
    mask = (1 << 24) - 1
    c1, c2, c3 = w & mask, (w >> 24) & mask, (w >> 48) & mask
    if c1 not in (0, mask) or golay_syndrome(c2):
        return False
    return c3.bit_count() & 1 == (c1 == mask)


def carry_r_terms(c: int, c_tilde: int, n: int, L: int, level: int) -> list[BitWord]:
    """The product decomposition of the level carry: s_i = (c_i*d_i) XOR r terms.

    r_i^(1) = (c_i XOR d_i) * (c_{i-1} * d_{i-1}) and each deeper term ANDs
    in one more level's XOR: r_i^(j) = (c_i XOR d_i) * r_{i-1}^(j-1).
    """
    if not 1 <= level <= L:
        raise ValueError(f"level {level} outside 1..{L}")
    cl = oracle_split(c, n, L)
    dl = oracle_split(c_tilde, n, L)
    terms: list[int] = []
    for i in range(1, level):
        xor_i = cl[i] ^ dl[i]
        terms = [xor_i & (cl[i - 1] & dl[i - 1])] + [xor_i & t for t in terms]
    return [BitWord(t, n) for t in terms]


def _carry_row(levels: np.ndarray, i: int, n: int, L: int) -> np.ndarray:
    """Packed carry tuples (0, s_1, ..., s_{L-1}) of word i against words i..m-1.

    The carry formula is symmetric in the pair, so scanning the upper
    triangle including the diagonal covers all ordered pairs.
    """
    m = levels.shape[1]
    carry = np.zeros(m - i, dtype=np.uint64)
    packed = np.zeros(m - i, dtype=np.uint64)
    for lv in range(L - 1):
        a = levels[lv][i]
        b = levels[lv][i:]
        carry = (a & b) ^ ((a ^ b) & carry)
        packed |= carry << np.uint64((lv + 1) * n)
    return packed


def _check_pair_budget(main: MainCode, budget: int) -> None:
    m = len(main)
    if m * m > budget:
        raise BudgetExceededError(f"{m}^2 pairs exceed the scan budget {budget}")


def carry_set(main: MainCode, budget: int = DEFAULT_PAIR_BUDGET) -> frozenset[BitWord]:
    """All words (0, s_1, ..., s_{L-1}) over ordered codeword pairs."""
    _check_pair_budget(main, budget)
    levels = main.levels()
    tuples: set[int] = set()
    for i in range(len(main)):
        tuples.update(np.unique(_carry_row(levels, i, main.n, main.L)).tolist())
    return frozenset(BitWord(t, main.inner.n) for t in tuples)


def random_words(rng: np.random.Generator, count: int, n: int) -> list[int]:
    """``count`` uniform n-bit words as Python ints (repeats possible), n <= 64."""
    return [int(x) for x in rng.integers(0, 1 << n, size=count, dtype=np.uint64)]


def random_linear_code(rng: np.random.Generator, n: int, k: int) -> BinaryCode:
    if k == 0:
        return BinaryCode(n, [0])
    cols = [int(x) for x in rng.integers(0, 1 << n, size=k, dtype=np.uint64)]
    return enumerate_from_generator(cols, n=n)


def random_linear_main_code(
    rng: np.random.Generator, n: int, L: int, k: int | None = None
) -> MainCode:
    nl = n * L
    if k is None:
        k = int(rng.integers(0, nl + 1))
    return MainCode(random_linear_code(rng, nl, k), n, L)


def generator_twin(rng: np.random.Generator, main: MainCode) -> MainCode:
    """The generator form of a linear word-form ``main``, from unreduced rows:
    each basis word XOR a random earlier one, plus one dependent row."""
    basis = main.generators()
    rows = [g ^ (basis[int(rng.integers(0, i))] if i else 0) for i, g in enumerate(basis)]
    if rows:
        rows.append(rows[0] ^ rows[-1])
    return MainCode.from_generators(rows, main.n, main.L)


def random_lattice_main_code(
    rng: np.random.Generator, n: int, L: int, gens: int
) -> MainCode:
    """Binary digit code of the reps of a random lattice B*Z^n + q*Z^n.

    B has ``gens`` random rows in {0, ..., q-1}^n.  The C* lift of the
    result is that lattice, but the digit code need not be linear: callers
    check its ``linear`` flag.
    """
    q = 1 << L
    rows = [tuple(int(x) for x in r) for r in rng.integers(0, q, size=(gens, n))]
    reps = {tuple([0] * n)}
    frontier = list(reps)
    while frontier:
        grown = []
        for p in frontier:
            for r in rows:
                s = tuple((x + y) % q for x, y in zip(p, r))
                if s not in reps:
                    reps.add(s)
                    grown.append(s)
        frontier = grown
    words = [
        sum(((p[j] >> i) & 1) << (i * n + j) for i in range(L) for j in range(n))
        for p in reps
    ]
    return MainCode(BinaryCode(n * L, words), n, L)


def lift_word_to_point(word: int, n: int, L: int) -> tuple[int, ...]:
    """Integer point of a main codeword by direct digit stacking."""
    mask = (1 << n) - 1
    levels = [(word >> (i * n)) & mask for i in range(L)]
    return tuple(
        sum(((levels[i] >> j) & 1) << i for i in range(L)) for j in range(n)
    )


def thm5_full_scan(
    main: MainCode, budget: int = DEFAULT_PAIR_BUDGET
) -> LatticenessReport:
    """The carry-set test on every unordered codeword pair, packed in numpy.

    The witness of a not_lattice verdict is the first pair (in canonical
    word order) whose carry tuple falls outside the code.
    """
    t0 = time.perf_counter()
    if not main.inner.linear:
        raise ValueError("the carry-set test requires a verified-linear main code")
    _check_pair_budget(main, budget)
    levels = main.levels()
    words = main.inner.words  # sorted by construction
    m = len(main)
    n, L = main.n, main.L
    pairs = 0
    tuples: set[int] = set()
    for i in range(m):
        row = _carry_row(levels, i, n, L)
        pairs += m - i
        idx = np.searchsorted(words, row)
        ok = (idx < m) & (words[np.minimum(idx, m - 1)] == row)
        tuples.update(np.unique(row).tolist())
        if not ok.all():
            j = i + int(np.argmin(ok))
            bad = int(row[j - i])
            return LatticenessReport(
                verdict=NOT_LATTICE,
                method="thm5",
                witness={
                    "c": BitWord(int(words[i]), n * L).to_tuple(),
                    "c_tilde": BitWord(int(words[j]), n * L).to_tuple(),
                    "carry_tuple": BitWord(bad, n * L).to_tuple(),
                },
                pairs_scanned=pairs,
                elapsed_ms=(time.perf_counter() - t0) * 1e3,
            )
    return LatticenessReport(
        verdict=LATTICE,
        method="thm5",
        pairs_scanned=pairs,
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
        detail={"carry_tuples": len(tuples)},
    )


def thm4_all_pairs_oracle(main: MainCode) -> tuple[str, dict]:
    """Verdict and detail of the antiprojection-chain test from plain sets.

    Projections and zero-antiprojections are read off the split words, and
    each closure C_{i-1}*C_{i-1} <= S_i(0) is checked on every word pair.
    """
    n, L = main.n, main.L
    split = [main.split(w) for w in main.inner.words.tolist()]
    proj = [{parts[i] for parts in split} for i in range(L)]
    anti = [
        {parts[i] for parts in split if not any(p for j, p in enumerate(parts) if j != i)}
        for i in range(L)
    ]
    chain: list[dict] = []
    for i in range(2, L + 1):
        chain.append({"inclusion": f"C_{i - 1} <= S_{i}(0)", "holds": proj[i - 2] <= anti[i - 1]})
        chain.append({"inclusion": f"S_{i}(0) <= C_{i}", "holds": anti[i - 1] <= proj[i - 1]})
    chain.append({"inclusion": f"C_{L} <= F_2^{n}", "holds": len(proj[-1]) <= 1 << n})
    ok = all(c["holds"] for c in chain)
    closures: list[dict] = []
    if ok:
        for i in range(2, L + 1):
            good = all(x & y in anti[i - 1] for x in proj[i - 2] for y in proj[i - 2])
            closures.append(
                {"closure": f"C_{i - 1}*C_{i - 1} <= S_{i}(0)", "holds": good}
            )
            ok = ok and good
    return (LATTICE if ok else INCONCLUSIVE), {"chain": chain, "closures": closures}


def schur_closed_chain(
    codes: Sequence[BinaryCode],
) -> tuple[bool, tuple[int, BitWord, BitWord] | None]:
    """Check x*y in C_{i+1} for every pair x, y in C_i, i = 1..L-1.

    Returns (True, None) or (False, (i, x, y)) with the first violating
    level (1-based) and pair in lexicographic scan order.
    """
    for i in range(len(codes) - 1):
        cur, nxt = codes[i], codes[i + 1]
        if cur.n != nxt.n:
            raise LengthMismatchError(f"code lengths differ: {cur.n} vs {nxt.n}")
        ws = cur.words
        for a in range(len(ws)):
            ok = nxt.member_mask(ws[a] & ws[a:])
            if not ok.all():
                b = a + int(np.argmin(ok))
                return False, (i + 1, BitWord(ws[a], cur.n), BitWord(ws[b], cur.n))
    return True, None


def compare_cstar_vs_c(
    main: MainCode, d1_squared: int, d2_squared: int
) -> PackingComparison:
    """Compare a main code's lift against its associated independent-level lift."""
    product = 1
    for code in projection_codes(main):
        product *= len(code)
    ratio = math.log2(product) - math.log2(len(main))
    return compare_from_logs(main.n, d1_squared, d2_squared, ratio)


def oracle_linearity(code: BinaryCode) -> bool:
    """The linearity flag by the rank argument: a set containing zero is
    linear iff its size is exactly 2**rank, with the rank found by
    eliminating the largest remaining word's leading bit from every word."""
    if not len(code) or code.words[0] != 0:
        return False
    if code.generator is not None:
        return True
    rest, rank = code.words, 0
    while rest.any():
        rest = np.minimum(rest, rest ^ rest.max())
        rank += 1
    return len(code) == 1 << rank


def oracle_schur_parity_scan(code: BinaryCode) -> tuple[int, int]:
    """Odd-weight Schur products over all pairs x <= y of the word list:
    (violations, pairs scanned)."""
    arr = code.words
    m = len(arr)
    bad = 0
    for i in range(m):
        bad += int(np.count_nonzero(np.bitwise_count(arr[i] & arr[i:]) & 1))
    return bad, m * (m + 1) // 2


def oracle_chi2_sf(stat: float, dof: int) -> float:
    """Chi-square upper tail Q(dof/2, stat/2): mpmath's regularized upper
    incomplete gamma at 50 digits."""
    with mp.workdps(50):
        return float(mp.gammainc(mp.mpf(dof) / 2, mp.mpf(stat) / 2, mp.inf, regularized=True))
