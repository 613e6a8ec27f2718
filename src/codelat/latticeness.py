"""Exact deciders for whether a lifted constellation is a lattice.

A periodic set that contains q*Z^n is a lattice iff its representative set
is a group under subtraction mod q; that group test is the independent
brute-force oracle here.  It grows the span of the reps first, which
decides a lattice in O(m*n*L) lane operations and meets a failing pair of
a non-lattice, and scans the m^2 differences for the first failing pair
only on a non-lattice within the pair budget.  The structured tests work on the
generating codes instead: the nested Schur-chain test for Construction C,
a sufficient antiprojection-chain test, and the exact carry-set inclusion
test for Construction C*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .constructions import (
    KEY_BITS,
    CarryRecord,
    MainCode,
    PeriodicConstellation,
    rep_keys,
    _lane_sub,
)
from .gf2 import (
    BinaryCode,
    BitWord,
    LengthMismatchError,
    gf2_reduce_basis,
    gf2_residual,
    is_nested,
)

DEFAULT_PAIR_BUDGET = 1 << 32
_TABLE_CAP = 1 << 24  # q^n up to which the brute oracle looks reps up in a bool table
_BLOCK_KEYS = 1 << 14  # differences per row block of the brute oracle (128 KiB)

LATTICE = "lattice"
NOT_LATTICE = "not_lattice"
INCONCLUSIVE = "inconclusive"


class BudgetExceededError(RuntimeError):
    """Raised when a pair scan would exceed its budget."""


@dataclass
class LatticenessReport:
    verdict: str
    method: str
    witness: dict | None = None
    pairs_scanned: int = 0
    elapsed_ms: float | None = None  # set by a caller that times the call
    detail: dict = field(default_factory=dict)

    def as_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "method": self.method,
            "witness": self.witness,
            "elapsed_ms": None if self.elapsed_ms is None else round(self.elapsed_ms, 3),
            "pairs_scanned": self.pairs_scanned,
            **({"detail": self.detail} if self.detail else {}),
        }


def brute_closure_oracle(
    constellation: PeriodicConstellation, budget: int = DEFAULT_PAIR_BUDGET
) -> LatticenessReport:
    """Group test on the representative set: (a - b) mod q must stay inside.

    Independent of every code-level test.  While n*L <= 64, ``_span_test``
    first grows the span of the reps in O(m*n*L) lane operations; a lattice
    returns there, with ``pairs_scanned`` = m^2, the pairs its closure
    covers.  Otherwise, within the ``budget`` of m^2 pairs, the first-gap
    scan finds the witness, the first violating ordered pair in canonical
    rep order.  Past the budget, a non-lattice's witness is the failing
    pair the span test met, with the differences it computed as
    ``pairs_scanned``; only a set too wide to pack raises
    ``BudgetExceededError`` there.  A set without zero fails before either.
    """
    q, n, L = constellation.q, constellation.n, constellation.L
    reps = constellation.array
    m = len(reps)
    zero = tuple([0] * n)
    if not constellation.has_rep(zero):
        return LatticenessReport(
            verdict=NOT_LATTICE,
            method="brute",
            witness={"missing_zero": True},
            pairs_scanned=0,
        )
    packed, gap = n * L <= KEY_BITS, None
    if packed:
        keys = rep_keys(reps.T, q)  # sorted, as the reps are
        high = np.uint64(sum(1 << (j * L + L - 1) for j in range(n)))
        gap = _span_test(keys, high)
        if gap is None:
            return LatticenessReport(verdict=LATTICE, method="brute", pairs_scanned=m * m)
    if m * m <= budget:
        if packed:
            first = _first_gap_packed(keys, q**n, high)
        else:
            first = _first_gap_rows(reps, q)
        if first is None:
            return LatticenessReport(verdict=LATTICE, method="brute", pairs_scanned=m * m)
        gap = (*first, (first[0] + 1) * m)
    elif gap is None:
        raise BudgetExceededError(f"{m}^2 pairs exceed the scan budget {budget}")
    i, j, pairs = gap
    return LatticenessReport(
        verdict=NOT_LATTICE,
        method="brute",
        witness={
            "a": reps[i].tolist(),
            "b": reps[j].tolist(),
            "difference": np.mod(reps[i] - reps[j], q).tolist(),
        },
        pairs_scanned=pairs,
    )


def _span_test(keys: np.ndarray, high) -> tuple[int, int, int] | None:
    """None when the sorted packed ``keys``, 0 first, form a subgroup of
    Z_q^n; else (i, j, tested): key i - key j is not a key, and ``tested``
    differences were computed up to that one.

    Grows the span S of the keys from S = {0}.  The first key outside S is
    the next generator g, and S gains the cosets S - g, S - 2g, ... until
    -t*g lands back in S; cosets are equal or disjoint, so one lookup of
    the image of 0 decides each.  A subgroup holds every difference of its
    elements, so a coset that leaves the keys proves they are not one, and
    S never outgrows them.  S at least doubles per generator: at most n*L
    rounds and O(m*n*L) lane operations.  ``high`` is ``_lane_sub``'s
    top-bit mask.
    """
    last = len(keys) - 1
    covered = np.zeros(len(keys), dtype=bool)
    covered[0] = True
    span = keys[:1]
    g_at = tested = 0
    while True:
        g_at += int(np.argmin(covered[g_at:]))  # first key outside S
        if covered[g_at]:
            return None  # every key lies in S, and S inside the keys
        g = keys[g_at]
        cosets = [span]
        image_at = 0  # S - t*g holds -t*g at the place of 0
        while True:
            image = _lane_sub(keys[image_at], g, high)
            at = min(int(keys.searchsorted(image)), last)
            tested += 1
            if keys[at] != image:
                return image_at, g_at, tested
            if covered[at]:
                break
            image_at = at
            coset = _lane_sub(cosets[-1], g, high)
            pos = np.minimum(keys.searchsorted(coset), last)
            miss = keys[pos] != coset
            if miss.any():
                f = int(np.argmax(miss))
                return int(keys.searchsorted(cosets[-1][f])), g_at, tested + f + 1
            tested += len(coset)
            covered[pos] = True
            cosets.append(coset)
        span = np.concatenate(cosets)


def _key_lookup(keys: np.ndarray, size: int):
    """Membership test of uint64 probes among the sorted ``keys``, all < ``size``.

    A bool table of ``size`` entries while that is at most ``_TABLE_CAP``,
    else one ``searchsorted`` over the keys.
    """
    if size <= _TABLE_CAP:
        table = np.zeros(size, dtype=bool)
        table[keys] = True
        # probes below the cap are exact as int64, which take() indexes uncast
        return lambda probes: table.take(probes.view(np.int64))
    last = len(keys) - 1
    return lambda probes: keys[np.minimum(keys.searchsorted(probes), last)] == probes


def _first_gap_packed(keys: np.ndarray, size: int, high) -> tuple[int, int] | None:
    """First ordered pair (i, j) with key i - key j outside the sorted ``keys``.

    The keys are packed reps of n L-bit lanes (n*L <= 64), all below
    ``size`` = q^n; each difference is one ``_lane_sub`` with the lane
    top bits ``high`` and one lookup.  Rows are scanned in blocks that
    start at one row, so a set failing early stops early, and double up
    to ``_BLOCK_KEYS`` differences.
    """
    m = len(keys)
    member = _key_lookup(keys, size)
    cap = max(1, _BLOCK_KEYS // m)
    i, rows = 0, 1
    while i < m:
        block = keys[i : i + rows]
        ok = member(_lane_sub(block[:, None], keys, high))
        if not ok.all():
            i2, j = divmod(int(np.argmin(ok)), m)  # row-major first failure
            return i + i2, j
        i += len(block)
        rows = min(2 * rows, cap)
    return None


def _first_gap_rows(reps: np.ndarray, q: int) -> tuple[int, int] | None:
    """``_first_gap_packed`` for reps too wide to pack: each row's m
    differences are looked up at once among the reps' sorted byte-string
    keys (sorted by bytes, not in rep order; only membership is asked)."""
    row = np.dtype((np.void, reps.itemsize * reps.shape[1]))
    keys = np.sort(reps.view(row).ravel())
    for i in range(len(reps)):
        diffs = np.mod(reps[i] - reps, q).view(row).ravel()
        ok = keys[np.minimum(keys.searchsorted(diffs), len(keys) - 1)] == diffs
        if not ok.all():
            return i, int(np.argmin(ok))
    return None


def thm1_check(codes: Sequence[BinaryCode]) -> LatticenessReport:
    """Nested-chain test for Construction C from linear codes.

    Lattice iff the chain is nested and Schur-closed level into next
    level; Constructions C and D then give the same rep set.  The witness
    of a failed closure is the first violating basis pair of C_level (see
    ``_schur_gap``).
    """
    for code in codes:
        if not code.linear:
            raise ValueError("the nested-chain test requires verified-linear codes")
    for i in range(len(codes) - 1):
        if not is_nested(codes[i], codes[i + 1]):
            return LatticenessReport(
                verdict=NOT_LATTICE,
                method="thm1",
                witness={"non_nested_level": i + 1},
            )
    for i in range(len(codes) - 1):
        gap = _schur_gap(codes[i].basis(), codes[i + 1].__contains__)
        if gap is not None:
            x, y = (BitWord(w, codes[i].n) for w in gap)
            return LatticenessReport(
                verdict=NOT_LATTICE,
                method="thm1",
                witness={
                    "level": i + 1,
                    "x": x.to_tuple(),
                    "y": y.to_tuple(),
                    "product": (x & y).to_tuple(),
                },
            )
    return LatticenessReport(verdict=LATTICE, method="thm1")


def _schur_gap(
    basis: Sequence[int], member: Callable[[int], bool]
) -> tuple[int, int] | None:
    """First pair (g, h) of ``basis`` whose product g & h fails ``member``.

    Decides C * C <= T for the span C of ``basis`` and a linear T given by
    its membership test: the Schur product is bilinear, so every product
    x & y is a sum of basis products.  Pairs g <= h go in basis order; None
    when the closure holds.
    """
    for a, g in enumerate(basis):
        for h in basis[a:]:
            if not member(g & h):
                return g, h
    return None


def _spans_inside(basis: Sequence[int], target: Sequence[int]) -> bool:
    """Whether the span of ``basis`` lies in the span of the reduced ``target``."""
    return not any(gf2_residual(b, target) for b in basis)


def _full_adder(c, d, levels: int) -> list:
    """Carries s_1, ..., s_levels of adding the lifts of two main words.

    ``c`` and ``d`` hold the level words of the two words, level i (0-based)
    at index i: ints, or arrays holding the level words of many pairs.
    Runs the full-adder recursion s_i = (c_i AND d_i) XOR ((c_i XOR d_i)
    AND s_{i-1}), with s_0 = 0; carry s_i sits at level i (0-based), the
    level it carries into.
    """
    carry, out = 0, []
    for i in range(levels):
        carry = (c[i] & d[i]) ^ ((c[i] ^ d[i]) & carry)
        out.append(carry)
    return out


def _level_words(word, n: int, L: int) -> list[int]:
    """The L level words of a main word given as an int or a length-n*L BitWord."""
    if isinstance(word, BitWord):
        if word.n != n * L:
            raise LengthMismatchError(f"word length {word.n} != n*L = {n * L}")
        word = word.bits
    bits = int(word)
    if bits >> (n * L):  # negative, or wider than n*L bits
        raise LengthMismatchError(f"word {bits} is not an n*L = {n * L} bit word")
    return [(bits >> (i * n)) & ((1 << n) - 1) for i in range(L)]


def carry_terms(c, c_tilde, n: int, L: int) -> CarryRecord:
    """Carries produced when the lifts of two main codewords are added.

    The mod-2 carry s_i from level i into level i+1 follows the full-adder
    recursion of ``_full_adder``; the integer carry past level L equals
    the same recursion evaluated at level L, read as a 0/1 integer vector.
    Together these reconstruct the plain integer sum of the two lifted
    points exactly (see ``reconstruct_sum``).
    """
    carries = _full_adder(_level_words(c, n, L), _level_words(c_tilde, n, L), L)
    return CarryRecord(
        s=tuple(BitWord(s, n) for s in carries[:-1]),
        s_star=tuple((carries[-1] >> j) & 1 for j in range(n)),
    )


def reconstruct_sum(c, c_tilde, n: int, L: int) -> tuple[int, ...]:
    """Integer vector sum of the two lifted points, via digits and carries.

    Digit i of the sum is c_i XOR d_i XOR s_i (s_0 = 0) for the levels
    i = 0..L-1, the digits mod q, and the last carry s_L is digit L, worth
    2^L.  Coordinate j reads its L + 1 digits, top level first, as one
    binary numeral.
    """
    cw, dw = _level_words(c, n, L), _level_words(c_tilde, n, L)
    carries = _full_adder(cw, dw, L)
    digits = [x ^ y ^ s for x, y, s in zip(cw, dw, [0] + carries)] + carries[-1:]
    # most significant bit first: level L, then L - 1, ...; coordinate n - 1
    # first within a level, so coordinate j's digits start at n - 1 - j
    text = format(sum(w << (i * n) for i, w in enumerate(digits)), f"0{(L + 1) * n}b")
    return tuple(int(text[n - 1 - j :: n], 2) for j in range(n))


def thm5_check(main: MainCode, budget: int = DEFAULT_PAIR_BUDGET) -> LatticenessReport:
    """Necessary and sufficient test: the carry set must lie inside the code.

    ``main`` is a linear main code in either form; it is never enumerated,
    only its generators and ``member_mask`` are used.

    Only low-weight generator combinations are tested.  Write c = aG and
    d = bG for a basis G of dimension k.  The carry s_i has degree i + 1 in
    the bits of (c, d), so each bit of H * (0, s_1, ..., s_{L-1}), for a
    parity-check matrix H, is a GF(2) polynomial f of degree <= L in the
    2k bits of (a, b).  By Moebius inversion of its algebraic normal form,
    the coefficient of the monomial over a variable set S is the XOR of f
    over the points supported inside S; every such point has weight <= |S|.
    So if f vanishes on every point of weight <= L, every coefficient of
    degree <= L is zero, and f is identically zero.  The carry tuple lies
    in the code for all pairs iff it does for the unordered pairs (a, b)
    with wt(a) + wt(b) <= L; pairs with a zero word carry nothing and are
    skipped.  That is at most sum_{w <= L} C(2k, w) pairs instead of 4^k/2,
    and the budget bounds that sum.

    Pairs are tested in increasing total weight, then by the weight of a,
    with the subsets of each weight in lexicographic order of their basis
    indices.  The witness of a
    not_lattice verdict is the first pair whose carry tuple falls outside
    the code: the codewords ``c`` and ``c_tilde`` of that pair and the
    ``carry_tuple``; it re-derives via ``carry_terms``.  ``pairs_scanned``
    counts the pairs tested up to that one.
    """
    if not main.linear:
        raise ValueError("the carry-set test requires a verified-linear main code")
    n, L = main.n, main.L
    basis = main.generators()
    k = len(basis)
    bound = sum(math.comb(2 * k, w) for w in range(L + 1))
    if bound > budget:
        raise BudgetExceededError(
            f"{bound} low-weight pairs exceed the scan budget {budget}"
        )
    gens = np.array([main.split(g) for g in basis], dtype=np.uint64).reshape(k, L).T
    combos = []  # (L, C(k, w)) level arrays of the XORs of the w-subsets of the basis
    for w in range(L):
        subsets = np.array(list(combinations(range(k), w)), dtype=np.intp)
        combos.append(np.bitwise_xor.reduce(gens[:, subsets.reshape(math.comb(k, w), w)], axis=2))
    pairs = 0
    groups = [(wa, total - wa) for total in range(2, L + 1) for wa in range(1, total // 2 + 1)]
    for wa, wb in groups:
        # blocks of up to _BLOCK_KEYS pairs, a row taking combos[wb] from its
        # own index on when wa = wb; a block costs mostly its member_mask call
        left, right = combos[wa], combos[wb]
        m = right.shape[1]
        rows = max(1, _BLOCK_KEYS // max(m, 1))
        for i in range(0, left.shape[1], rows):
            block = np.arange(i, min(i + rows, left.shape[1]))
            r, j = np.nonzero((np.arange(m) >= block[:, None]) | (wa != wb))
            a, b = left[:, block[r]], right[:, j]
            carry = np.zeros_like(a)
            carry[1:] = _full_adder(a, b, L - 1)  # (0, s_1, ..., s_{L-1})
            ok = main.member_mask(carry)
            if not ok.all():
                f = int(np.argmin(ok))
                c, d, t = (
                    BitWord(main.join(w[:, f].tolist()), n * L).to_tuple() for w in (a, b, carry)
                )
                return LatticenessReport(
                    verdict=NOT_LATTICE,
                    method="thm5",
                    witness={"c": c, "c_tilde": d, "carry_tuple": t},
                    pairs_scanned=pairs + f + 1,
                )
            pairs += len(r)
    return LatticenessReport(
        verdict=LATTICE,
        method="thm5",
        pairs_scanned=pairs,
        detail={"dimension": k},
    )


def thm4_check(main: MainCode) -> LatticenessReport:
    """Sufficient antiprojection-chain test; never reports not_lattice.

    Requires C_1 <= S_2(0) <= C_2 <= ... <= S_L(0) <= C_L <= F_2^n and,
    for each level i >= 2, that every pairwise Schur product of level-(i-1)
    words lands in S_i(0).  Once the chain holds, the deeper carry-recursion
    products are themselves pairwise products of level-(i-1) words, so the
    pairwise check covers them.  Every code here is a span, read off the
    generators (``projection_bases``, ``antiprojection_zero_bases``), so an
    inclusion tests basis words for membership and ``_schur_gap`` tests a
    closure on basis pairs of C_{i-1}.  No word is enumerated.
    """
    if not main.linear:
        raise ValueError("the chain test requires a verified-linear main code")
    proj = main.projection_bases()
    anti = main.antiprojection_zero_bases()
    chain: list[dict] = []
    for i in range(2, main.L + 1):
        c_prev, s_i, c_i = proj[i - 2], anti[i - 1], proj[i - 1]
        chain.append({"inclusion": f"C_{i - 1} <= S_{i}(0)", "holds": _spans_inside(c_prev, s_i)})
        chain.append({"inclusion": f"S_{i}(0) <= C_{i}", "holds": _spans_inside(s_i, c_i)})
    chain.append({"inclusion": f"C_{main.L} <= F_2^{main.n}", "holds": len(proj[-1]) <= main.n})
    ok = all(c["holds"] for c in chain)
    closures: list[dict] = []
    if ok:
        for i in range(2, main.L + 1):
            good = _schur_gap(proj[i - 2], lambda w: not gf2_residual(w, anti[i - 1])) is None
            closures.append({"closure": f"C_{i - 1}*C_{i - 1} <= S_{i}(0)", "holds": good})
            ok = ok and good
    return LatticenessReport(
        verdict=LATTICE if ok else INCONCLUSIVE,
        method="thm4",
        detail={"chain": chain, "closures": closures},
    )


def thm4_check_leech(leech, threads: int = 1) -> LatticenessReport:
    """``thm4_check`` on the Leech main code, with the size of its last closure.

    S_3(0) is the even-weight code, so C_2*C_2 <= S_3(0) asks that every
    Schur product of two Golay codewords have even weight.
    ``schur_parity_scan`` counts the pairs x <= y that break it from the
    12 x 12 Gram matrix of a Golay basis; the closure entry gains that
    count and the 4096 * 4097 / 2 pairs it covers, which ``pairs_scanned``
    reports.  ``threads`` is unused; it stays for callers that pass it.
    """
    report = thm4_check(leech)
    violations, pairs = schur_parity_scan(leech.golay)
    report.detail["closures"][-1].update(pairs=pairs, violations=violations)
    report.pairs_scanned = pairs
    return report


def schur_parity_scan(code: BinaryCode) -> tuple[int, int]:
    """Count the codeword pairs x <= y whose Schur product has odd weight.

    The closure covers the m(m+1)/2 pairs of the upper triangle, diagonal
    included; returns (violations, pairs covered).  The parity of x & y is
    the GF(2) inner product <x, y>, which is bilinear, so the count is
    decided from the k x k Gram matrix G_ij = <b_i, b_j> of a basis.  With
    r = rank(G), <x, y> = 1 on 2^(2k-1) - 2^(2k-r-1) ordered pairs (none
    when r = 0): each x off the 2^(k-r)-word radical pairs oddly with half
    the code.  On the diagonal <x, x> is the weight parity, a linear form,
    odd on half the code unless every basis word has even weight.  Needs a
    linear code.
    """
    if not code.linear:
        raise ValueError("the Schur parity count requires a verified-linear code")
    basis = code.basis()
    k = len(basis)
    gram = [
        sum(((b & c).bit_count() & 1) << j for j, c in enumerate(basis))
        for b in basis
    ]
    r = len(gf2_reduce_basis(gram))
    ordered = (1 << (2 * k - 1)) - (1 << (2 * k - r - 1)) if r else 0
    diagonal = 1 << (k - 1) if any(b.bit_count() & 1 for b in basis) else 0
    m = len(code)
    return (ordered + diagonal) // 2, m * (m + 1) // 2
