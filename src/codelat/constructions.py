"""Lifts of binary codes into periodic point sets of R^n.

A periodic constellation is stored by its coset representatives inside
{0, ..., q-1}^n with period q = 2^L; the represented set is reps + q*Z^n.
Four lifts are provided: Construction A (one code, q = 2), Construction C
(independent level codes), Construction C* (levels jointly constrained by a
single length-n*L main code) and Construction D (nested linear chain,
expanded over an integer basis, always a lattice).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .gf2 import (
    DEFAULT_ENUMERATION_CAP,
    BinaryCode,
    BitWord,
    EnumerationCapError,
    LengthMismatchError,
    as_word,
    gf2_reduce_basis,
    is_nested,
)

MAX_LEVELS = 15  # keeps every coordinate value within 16 bits


@dataclass(frozen=True)
class MainCode:
    """A length n*L binary code read as L stacked level words of length n."""

    inner: BinaryCode
    n: int
    L: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"level count must be >= 1, got {self.L}")
        if self.L > MAX_LEVELS:
            raise ValueError(f"level count {self.L} above the supported {MAX_LEVELS}")
        if self.inner.n != self.n * self.L:
            raise ValueError(
                f"main code length {self.inner.n} != n*L = {self.n}*{self.L}"
            )

    @classmethod
    def from_words(cls, words: Iterable, n: int, L: int) -> "MainCode":
        return cls(BinaryCode.from_words(words, n=n * L), n, L)

    @property
    def q(self) -> int:
        return 1 << self.L

    def __len__(self) -> int:
        return len(self.inner)

    @property
    def linear(self) -> bool | None:
        return self.inner.linear

    def contains(self, word) -> bool:
        return word in self.inner

    def generators(self) -> list[int]:
        """A basis of the code: the reduced stored generator, else one read off the words."""
        gen = self.inner.generator
        return gf2_reduce_basis(self.inner.words.tolist() if gen is None else gen)

    def split(self, word: int) -> tuple[int, ...]:
        mask = (1 << self.n) - 1
        return tuple((word >> (i * self.n)) & mask for i in range(self.L))

    def join(self, levels: Sequence[int]) -> int:
        if len(levels) != self.L:
            raise ValueError(f"expected {self.L} level words, got {len(levels)}")
        word = 0
        for i, lv in enumerate(levels):
            word |= lv << (i * self.n)
        return word

    def levels(self) -> np.ndarray:
        """(L, |C|) uint64 array: row i holds the level-(i+1) word of each
        codeword, in canonical word order."""
        shifts = np.arange(self.L, dtype=np.uint64)[:, None] * np.uint64(self.n)
        return (self.inner.words >> shifts) & np.uint64((1 << self.n) - 1)


@dataclass(frozen=True)
class CarryRecord:
    """Carries produced when two lifted points are added.

    ``s`` holds the mod-2 carries from level i into level i+1 for
    i = 1..L-1; ``s_star`` is the integer carry vector that spills past
    level L into the q*Z^n translate.
    """

    s: tuple[BitWord, ...]
    s_star: tuple[int, ...]


@dataclass(frozen=True)
class PeriodicConstellation:
    """reps + q*Z^n with reps canonically sorted inside {0,...,q-1}^n."""

    n: int
    L: int
    q: int
    reps: tuple[tuple[int, ...], ...]
    source: str = "custom"

    def __post_init__(self):
        if self.L < 1 or self.L > MAX_LEVELS:
            raise ValueError(f"level count {self.L} outside 1..{MAX_LEVELS}")
        if self.q != (1 << self.L):
            raise ValueError(f"period {self.q} != 2^{self.L}")
        if not self.reps:
            raise ValueError("constellation needs at least one representative")
        reps = tuple(sorted(tuple(int(c) for c in r) for r in self.reps))
        for r in reps:
            if len(r) != self.n:
                raise ValueError(f"representative {r} is not {self.n}-dimensional")
            if any(not 0 <= c < self.q for c in r):
                raise ValueError(f"representative {r} outside [0, {self.q})")
        object.__setattr__(self, "reps", reps)

    def __len__(self) -> int:
        return len(self.reps)

    def rep_array(self) -> np.ndarray:
        return np.array(self.reps, dtype=np.int64)

    def has_rep(self, rep: tuple[int, ...]) -> bool:
        """True iff ``rep`` is one of the sorted representatives (no reduction)."""
        i = bisect_left(self.reps, rep)
        return i < len(self.reps) and self.reps[i] == rep

    def contains(self, point: Sequence[int]) -> bool:
        if len(point) != self.n:
            raise ValueError(f"point has dimension {len(point)}, expected {self.n}")
        return self.has_rep(tuple(int(c) % self.q for c in point))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "L": self.L,
            "q": self.q,
            "source": self.source,
            "reps": [list(r) for r in self.reps],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PeriodicConstellation":
        return cls(
            n=int(obj["n"]),
            L=int(obj["L"]),
            q=int(obj["q"]),
            reps=tuple(tuple(int(c) for c in r) for r in obj["reps"]),
            source=str(obj.get("source", "custom")),
        )


def _bit_matrix(words, n: int) -> np.ndarray:
    """(len(words), n) int32 0/1 matrix of int-packed words, coordinate j in column j."""
    arr = np.asarray(words, dtype=np.uint64)
    return ((arr[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(
        np.int32
    )


def _unique_rep_tuples(points: np.ndarray) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, np.unique(points, axis=0).tolist()))


def construction_a(code: BinaryCode) -> PeriodicConstellation:
    """One-level lift: code + 2*Z^n."""
    if not len(code):
        raise ValueError("cannot lift an empty code")
    reps = tuple(map(tuple, _bit_matrix(code.words, code.n).tolist()))
    return PeriodicConstellation(n=code.n, L=1, q=2, reps=reps, source="A")


def construction_c(
    codes: Sequence[BinaryCode], cap: int = DEFAULT_ENUMERATION_CAP
) -> PeriodicConstellation:
    """Multilevel lift sum(2^(i-1) * C_i) + 2^L * Z^n with independent levels."""
    if not codes:
        raise ValueError("need at least one level code")
    n = codes[0].n
    L = len(codes)
    total = 1
    for c in codes:
        if c.n != n:
            raise LengthMismatchError(f"code lengths differ: {c.n} vs {n}")
        if not len(c):
            raise ValueError("cannot lift an empty level code")
        total *= len(c)
    if total > cap:
        raise EnumerationCapError(
            f"construction C would enumerate {total} representatives, above {cap}",
            total,
        )
    acc = np.zeros((1, n), dtype=np.int32)
    for i, code in enumerate(codes):
        bits = _bit_matrix(code.words, n) << i
        acc = (acc[:, None, :] + bits[None, :, :]).reshape(-1, n)
    reps = _unique_rep_tuples(acc)
    if len(reps) != total:
        raise AssertionError("binary digit stacking must be injective")
    return PeriodicConstellation(n=n, L=L, q=1 << L, reps=reps, source="C")


def construction_cstar(
    main: MainCode, cap: int = DEFAULT_ENUMERATION_CAP
) -> PeriodicConstellation:
    """Lift of a main code: one representative per main codeword."""
    size = len(main)
    if not size:
        raise ValueError("cannot lift an empty main code")
    if size > cap:
        raise EnumerationCapError(
            f"construction C* would enumerate {size} representatives, above {cap}; "
            "use the structured operations for codes of this scale",
            size,
        )
    acc = np.zeros((size, main.n), dtype=np.int32)
    for i, lv in enumerate(main.levels()):
        acc += _bit_matrix(lv, main.n) << i
    reps = _unique_rep_tuples(acc)
    if len(reps) != size:
        raise AssertionError("binary digit stacking must be injective")
    return PeriodicConstellation(
        n=main.n, L=main.L, q=main.q, reps=reps, source="Cstar"
    )


def _greedy_chain_basis(codes: Sequence[BinaryCode]) -> tuple[list[int], list[int]]:
    """Basis of F_2^n whose first k_i vectors span C_i, grown greedily.

    Scans each level's words in canonical sorted order and keeps the
    independent ones.  Returns (basis vectors, [k_1, ..., k_L]).  The rep
    set of Construction D is basis-independent; the greedy choice only
    pins a deterministic expansion order.  Completing the basis beyond
    k_L is unnecessary: the expansion never uses those vectors.
    """
    basis: list[int] = []
    reduced: list[int] = []
    ks: list[int] = []
    for code in codes:
        for w in code.words.tolist():
            cur = w
            for b in reduced:
                cur = min(cur, cur ^ b)
            if cur:
                basis.append(w)
                reduced.append(cur)
                reduced.sort(reverse=True)
        ks.append(len(basis))
    return basis, ks


def construction_d(
    codes: Sequence[BinaryCode], cap: int = DEFAULT_ENUMERATION_CAP
) -> PeriodicConstellation:
    """Nested-chain lattice: levels expand over a common basis with integer sums.

    Requires linear codes with C_1 <= ... <= C_L.  Unlike Constructions C
    and C*, the inner per-level combinations are integer vector sums of the
    embedded basis words, so coordinates can carry past 1 before the mod-q
    reduction; that is what makes the result a lattice.
    """
    if not codes:
        raise ValueError("need at least one level code")
    n = codes[0].n
    L = len(codes)
    for code in codes:
        if code.n != n:
            raise LengthMismatchError(f"code lengths differ: {code.n} vs {n}")
        if code.linear is not True:
            raise ValueError("construction D requires verified-linear codes")
    for i in range(L - 1):
        if not is_nested(codes[i], codes[i + 1]):
            raise ValueError(f"codes are not nested at level {i + 1}")

    basis, ks = _greedy_chain_basis(codes)
    total_bits = sum(ks)
    if (1 << total_bits) > cap:
        raise EnumerationCapError(
            f"construction D would expand 2^{total_bits} combinations, above {cap}",
            1 << total_bits,
        )

    q = 1 << L
    basis_rows = _bit_matrix(basis, n)
    # Per-level integer spans of the first k_i basis vectors, grown
    # incrementally; duplicates are collapsed only at the very end.
    level_span = np.zeros((1, n), dtype=np.int32)
    spans: list[np.ndarray] = []
    used = 0
    for k in ks:
        for j in range(used, k):
            level_span = np.concatenate(
                [level_span, level_span + basis_rows[j][None, :]], axis=0
            )
        used = k
        spans.append(level_span)
    acc = np.zeros((1, n), dtype=np.int64)
    for i, span in enumerate(spans):
        acc = (acc[:, None, :] + (span.astype(np.int64) << i)[None, :, :]).reshape(
            -1, n
        )
    reps = _unique_rep_tuples(np.mod(acc, q))
    return PeriodicConstellation(n=n, L=L, q=q, reps=reps, source="D")


def projection_codes(main: MainCode) -> list[BinaryCode]:
    """The L length-n codes of level words appearing in the main code."""
    linear = True if main.inner.linear else None
    return [
        BinaryCode(main.n, lv, linear=linear if len(lv) else False)
        for lv in main.levels()
    ]


def antiprojection(
    main: MainCode, level: int, fixed: Sequence
) -> BinaryCode:
    """Level words compatible with the fixed words at all other levels.

    ``fixed`` lists the L-1 level words in level order with position
    ``level`` skipped.  The result may be empty.
    """
    if not 1 <= level <= main.L:
        raise ValueError(f"level {level} outside 1..{main.L}")
    if len(fixed) != main.L - 1:
        raise ValueError(f"expected {main.L - 1} fixed level words, got {len(fixed)}")
    fixed_ints = [as_word(f, main.n).bits for f in fixed]
    levels = main.levels()
    others = [i for i in range(main.L) if i != level - 1]
    keep = np.ones(len(main), dtype=bool)
    for i, f in zip(others, fixed_ints):
        keep &= levels[i] == np.uint64(f)
    hits = levels[level - 1][keep]
    zero_fixed = all(f == 0 for f in fixed_ints)
    linear = True if (main.inner.linear and zero_fixed and hits.size) else None
    if not hits.size:
        linear = False
    return BinaryCode(main.n, hits, linear=linear)


def associated_construction_c(
    main: MainCode, cap: int = DEFAULT_ENUMERATION_CAP
) -> PeriodicConstellation:
    """Construction C of the projection codes; always a superset of the C* reps."""
    return construction_c(projection_codes(main), cap=cap)


def product_main_code(
    codes: Sequence[BinaryCode], cap: int = DEFAULT_ENUMERATION_CAP
) -> MainCode:
    """Cartesian-product main code whose C* lift equals Construction C."""
    if not codes:
        raise ValueError("need at least one level code")
    n = codes[0].n
    L = len(codes)
    total = 1
    for c in codes:
        if c.n != n:
            raise LengthMismatchError(f"code lengths differ: {c.n} vs {n}")
        total *= len(c)
    if total > cap:
        raise EnumerationCapError(
            f"product main code has {total} words, above {cap}", total
        )
    words = np.zeros(1, dtype=np.uint64)
    for i, code in enumerate(codes):
        shifted = code.words << np.uint64(i * n)
        words = (words[:, None] | shifted[None, :]).ravel()
    linear = True if all(c.linear for c in codes) else None
    inner = BinaryCode(n * L, words, linear=linear)
    return MainCode(inner, n, L)
