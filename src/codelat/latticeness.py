"""Exact deciders for whether a lifted constellation is a lattice.

A periodic set that contains q*Z^n is a lattice iff its representative set
is a group under subtraction mod q; that subtraction scan is the
independent brute-force oracle here.  The structured tests work on the
generating codes instead: the nested Schur-chain test for Construction C,
a sufficient antiprojection-chain test, and the exact carry-set inclusion
test for Construction C*.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .constructions import (
    KEY_BITS,
    CarryRecord,
    MainCode,
    PeriodicConstellation,
    projection_codes,
    antiprojection,
    rep_keys,
    _lane_sub,
)
from .gf2 import (
    BinaryCode,
    BitWord,
    LengthMismatchError,
    gf2_reduce_basis,
    is_nested,
)

if TYPE_CHECKING:
    from .catalog import LeechMainCode

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
    elapsed_ms: float = 0.0
    detail: dict = field(default_factory=dict)

    def as_json(self, include_timing: bool = True) -> dict:
        return {
            "verdict": self.verdict,
            "method": self.method,
            "witness": self.witness,
            "elapsed_ms": round(self.elapsed_ms, 3) if include_timing else None,
            "pairs_scanned": self.pairs_scanned,
            **({"detail": self.detail} if self.detail else {}),
        }


def brute_closure_oracle(
    constellation: PeriodicConstellation, budget: int = DEFAULT_PAIR_BUDGET
) -> LatticenessReport:
    """Group test on the representative set: (a - b) mod q must stay inside.

    Independent of every code-level test; the witness is the first
    violating ordered pair in canonical rep order.
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
    if n * constellation.L <= KEY_BITS:
        gap = _first_gap_packed(reps, q, constellation.L)
    else:
        gap = _first_gap_rows(constellation, reps)
    if gap is None:
        return LatticenessReport(
            verdict=LATTICE,
            method="brute",
            pairs_scanned=m * m,
            elapsed_ms=(time.perf_counter() - t0) * 1e3,
        )
    i, j = gap
    return LatticenessReport(
        verdict=NOT_LATTICE,
        method="brute",
        witness={
            "a": reps[i].tolist(),
            "b": reps[j].tolist(),
            "difference": np.mod(reps[i] - reps[j], q).tolist(),
        },
        pairs_scanned=(i + 1) * m,
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
    )


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


def _first_gap_packed(reps: np.ndarray, q: int, L: int) -> tuple[int, int] | None:
    """First ordered pair (i, j) with reps[i] - reps[j] mod q outside the reps.

    Needs n*L <= 64: each rep is one packed key, each difference one
    ``_lane_sub`` and one lookup.  Rows are scanned in blocks that start at
    one row, so a set failing early stops early, and double up to
    ``_BLOCK_KEYS`` differences.
    """
    m, n = reps.shape
    keys = rep_keys(reps.T, q)  # sorted, as the reps are
    member = _key_lookup(keys, q**n)
    high = np.uint64(sum(1 << (j * L + L - 1) for j in range(n)))
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


def _first_gap_rows(
    constellation: PeriodicConstellation, reps: np.ndarray
) -> tuple[int, int] | None:
    """``_first_gap_packed`` for reps too wide to pack: ``has_rep`` row by row."""
    for i in range(len(reps)):
        diffs = np.mod(reps[i] - reps, constellation.q).tolist()
        for j, d in enumerate(diffs):
            if not constellation.has_rep(tuple(d)):
                return i, j
    return None


def thm1_check(codes: Sequence[BinaryCode]) -> LatticenessReport:
    """Nested-chain test for Construction C from linear codes.

    Lattice iff the chain is nested and Schur-closed level into next
    level; Constructions C and D then give the same rep set.  The witness
    of a failed closure is the first violating basis pair of C_level (see
    ``_schur_gap``).
    """
    t0 = time.perf_counter()
    for code in codes:
        if code.linear is not True:
            raise ValueError("the nested-chain test requires verified-linear codes")
    for i in range(len(codes) - 1):
        if not is_nested(codes[i], codes[i + 1]):
            return LatticenessReport(
                verdict=NOT_LATTICE,
                method="thm1",
                witness={"non_nested_level": i + 1},
                elapsed_ms=(time.perf_counter() - t0) * 1e3,
            )
    for i in range(len(codes) - 1):
        gap = _schur_gap(codes[i], codes[i + 1])
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
                elapsed_ms=(time.perf_counter() - t0) * 1e3,
            )
    return LatticenessReport(
        verdict=LATTICE,
        method="thm1",
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
    )


def _schur_gap(code: BinaryCode, target: BinaryCode) -> tuple[int, int] | None:
    """First basis pair (g, h) of ``code`` whose product g & h is not in ``target``.

    Decides code * code <= target for a linear ``target``: the Schur
    product is bilinear, so every product x & y is a sum of basis products.
    Pairs g <= h go in basis order; None when the closure holds.
    """
    basis = code.basis()
    for a, g in enumerate(basis):
        for h in basis[a:]:
            if (g & h) not in target:
                return g, h
    return None


def carry_terms(c, c_tilde, n: int, L: int) -> CarryRecord:
    """Carries produced when the lifts of two main codewords are added.

    The mod-2 carry from level i into level i+1 follows the full-adder
    recursion s_i = (c_i AND d_i) XOR ((c_i XOR d_i) AND s_{i-1}) with
    s_1 = c_1 AND d_1; the integer carry past level L equals the same
    recursion evaluated at level L, read as a 0/1 integer vector.  Together
    these reconstruct the plain integer sum of the two lifted points
    exactly (see ``reconstruct_sum``).
    """
    cw = c.bits if isinstance(c, BitWord) else int(c)
    dw = c_tilde.bits if isinstance(c_tilde, BitWord) else int(c_tilde)
    if isinstance(c, BitWord) and c.n != n * L:
        raise LengthMismatchError(f"word length {c.n} != n*L = {n * L}")
    if isinstance(c_tilde, BitWord) and c_tilde.n != n * L:
        raise LengthMismatchError(f"word length {c_tilde.n} != n*L = {n * L}")
    mask = (1 << n) - 1
    cl = [(cw >> (i * n)) & mask for i in range(L)]
    dl = [(dw >> (i * n)) & mask for i in range(L)]
    s_list: list[int] = []
    carry = 0
    for i in range(L):
        carry = (cl[i] & dl[i]) ^ ((cl[i] ^ dl[i]) & carry)
        if i < L - 1:
            s_list.append(carry)
    s_star = tuple((carry >> j) & 1 for j in range(n))
    return CarryRecord(
        s=tuple(BitWord(si, n) for si in s_list),
        s_star=s_star,
    )


def reconstruct_sum(c, c_tilde, n: int, L: int) -> tuple[int, ...]:
    """Integer vector sum of the two lifted points, via digits and carries."""
    record = carry_terms(c, c_tilde, n, L)
    cw = c.bits if isinstance(c, BitWord) else int(c)
    dw = c_tilde.bits if isinstance(c_tilde, BitWord) else int(c_tilde)
    mask = (1 << n) - 1
    cl = [(cw >> (i * n)) & mask for i in range(L)]
    dl = [(dw >> (i * n)) & mask for i in range(L)]
    digits = [cl[0] ^ dl[0]]
    for i in range(1, L):
        digits.append(record.s[i - 1].bits ^ cl[i] ^ dl[i])
    out = []
    for j in range(n):
        v = sum(((digits[i] >> j) & 1) << i for i in range(L))
        v += record.s_star[j] << L
        out.append(v)
    return tuple(out)


def _carry_tuple(c: int, d: int, n: int, L: int) -> int:
    """Packed carry tuple (0, s_1, ..., s_{L-1}) of two int-packed main words."""
    mask = (1 << n) - 1
    carry = 0
    packed = 0
    for i in range(L - 1):
        ci = (c >> (i * n)) & mask
        di = (d >> (i * n)) & mask
        carry = (ci & di) ^ ((ci ^ di) & carry)
        packed |= carry << ((i + 1) * n)
    return packed


def _combinations_by_weight(basis: Sequence[int], max_weight: int) -> list[list[int]]:
    """XORs of the w-subsets of ``basis`` for w = 0..max_weight, grouped by w.

    Subsets are grown in increasing index order, so each appears once.
    """
    layer = [(-1, 0)]  # (last basis index used, XOR of the subset)
    out = [[0]]
    for _ in range(max_weight):
        layer = [
            (j, word ^ basis[j])
            for last, word in layer
            for j in range(last + 1, len(basis))
        ]
        out.append([word for _, word in layer])
    return out


def thm5_check(
    main: MainCode | LeechMainCode, budget: int = DEFAULT_PAIR_BUDGET
) -> LatticenessReport:
    """Necessary and sufficient test: the carry set must lie inside the code.

    ``main`` is any linear main code exposing ``n``, ``L``, ``linear``,
    ``generators()`` and ``contains()``: a ``MainCode`` or the structured
    Leech main code, which is never enumerated.

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

    Pairs are tested in increasing total weight.  The witness of a
    not_lattice verdict is the first pair whose carry tuple falls outside
    the code: the codewords ``c`` and ``c_tilde`` of that pair and the
    ``carry_tuple``; it re-derives via ``carry_terms``.  ``pairs_scanned``
    counts the pairs tested.
    """
    t0 = time.perf_counter()
    if main.linear is not True:
        raise ValueError("the carry-set test requires a verified-linear main code")
    n, L = main.n, main.L
    basis = main.generators()
    k = len(basis)
    bound = sum(math.comb(2 * k, w) for w in range(L + 1))
    if bound > budget:
        raise BudgetExceededError(
            f"{bound} low-weight pairs exceed the scan budget {budget}"
        )
    combos = _combinations_by_weight(basis, L - 1)
    pairs = 0
    for total in range(2, L + 1):
        for wa in range(1, total // 2 + 1):
            left, right = combos[wa], combos[total - wa]
            for i, c in enumerate(left):
                for d in right[i:] if wa == total - wa else right:
                    pairs += 1
                    carry = _carry_tuple(c, d, n, L)
                    if not main.contains(carry):
                        return LatticenessReport(
                            verdict=NOT_LATTICE,
                            method="thm5",
                            witness={
                                "c": BitWord(c, n * L).to_tuple(),
                                "c_tilde": BitWord(d, n * L).to_tuple(),
                                "carry_tuple": BitWord(carry, n * L).to_tuple(),
                            },
                            pairs_scanned=pairs,
                            elapsed_ms=(time.perf_counter() - t0) * 1e3,
                        )
    return LatticenessReport(
        verdict=LATTICE,
        method="thm5",
        pairs_scanned=pairs,
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
        detail={"dimension": k},
    )


def thm4_check(main: MainCode) -> LatticenessReport:
    """Sufficient antiprojection-chain test; never reports not_lattice.

    Requires C_1 <= S_2(0) <= C_2 <= ... <= S_L(0) <= C_L <= F_2^n and,
    for each level i >= 2, that every pairwise Schur product of level-(i-1)
    words lands in S_i(0).  Once the chain holds, the deeper carry-recursion
    products are themselves pairwise products of level-(i-1) words, so the
    pairwise check covers them.  Both codes are linear and the Schur
    product is bilinear, so ``_schur_gap`` tests the closure on basis
    pairs of C_{i-1} only.
    """
    t0 = time.perf_counter()
    if main.inner.linear is not True:
        raise ValueError("the chain test requires a verified-linear main code")
    projections = projection_codes(main)
    zeros = [0] * (main.L - 1)
    chain: list[dict] = []
    ok = True
    anti: list[BinaryCode | None] = [None]
    for i in range(2, main.L + 1):
        anti.append(antiprojection(main, i, zeros))
    for i in range(2, main.L + 1):
        s_i = anti[i - 1]
        holds = is_nested(projections[i - 2], s_i)
        chain.append(
            {"inclusion": f"C_{i - 1} <= S_{i}(0)", "holds": bool(holds)}
        )
        ok = ok and holds
        holds = is_nested(s_i, projections[i - 1])
        chain.append(
            {"inclusion": f"S_{i}(0) <= C_{i}", "holds": bool(holds)}
        )
        ok = ok and holds
    full = 1 << main.n
    chain.append(
        {
            "inclusion": f"C_{main.L} <= F_2^{main.n}",
            "holds": bool(len(projections[-1]) <= full),
        }
    )
    closures: list[dict] = []
    if ok:
        for i in range(2, main.L + 1):
            good = _schur_gap(projections[i - 2], anti[i - 1]) is None
            closures.append(
                {"closure": f"C_{i - 1}*C_{i - 1} <= S_{i}(0)", "holds": bool(good)}
            )
            ok = ok and good
    verdict = LATTICE if ok else INCONCLUSIVE
    return LatticenessReport(
        verdict=verdict,
        method="thm4",
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
        detail={"chain": chain, "closures": closures},
    )


def thm4_check_leech(leech, threads: int = 1) -> LatticenessReport:
    """Chain test specialised to the structured Leech main code.

    The five chain inclusions come from the code structure plus two
    computed facts (the all-ones word is a Golay codeword; every Golay
    codeword has even weight).  The closure C_2*C_2 <= S_3(0) asks that
    every Schur product of two Golay codewords have even weight; it covers
    the 4096 * 4097 / 2 pairs x <= y, and ``schur_parity_scan`` decides it
    from the 12 x 12 Gram matrix of a Golay basis, without materialising
    the carry set.  ``pairs`` and ``pairs_scanned`` report the pairs the
    closure covers.  ``threads`` is unused; it stays for callers that pass
    it.
    """
    t0 = time.perf_counter()
    golay = leech.golay
    ones = (1 << leech.n) - 1
    all_even = not bool((np.bitwise_count(golay.words) & 1).any())
    chain = [
        {"inclusion": "C_1 <= S_2(0)", "holds": bool(0 in golay and ones in golay)},
        {"inclusion": "S_2(0) <= C_2", "holds": bool(leech.antiprojection_zero(2) == golay)},
        {"inclusion": "C_2 <= S_3(0)", "holds": all_even},
        {"inclusion": "S_3(0) <= C_3", "holds": True},  # even-weight words fill half of F_2^n
        {"inclusion": f"C_3 <= F_2^{leech.n}", "holds": True},
    ]
    closures = [
        {
            "closure": "C_1*C_1 <= S_2(0)",
            "holds": bool(0 in golay and ones in golay),
        }
    ]
    violations, pairs = schur_parity_scan(golay)
    closures.append(
        {
            "closure": "C_2*C_2 <= S_3(0)",
            "holds": violations == 0,
            "pairs": pairs,
            "violations": violations,
        }
    )
    ok = all(c["holds"] for c in chain) and all(c["holds"] for c in closures)
    return LatticenessReport(
        verdict=LATTICE if ok else INCONCLUSIVE,
        method="thm4",
        pairs_scanned=pairs,
        elapsed_ms=(time.perf_counter() - t0) * 1e3,
        detail={"chain": chain, "closures": closures},
    )


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
    verified-linear code.
    """
    if code.linear is not True:
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
