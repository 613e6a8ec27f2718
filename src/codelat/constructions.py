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
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .gf2 import (
    DEFAULT_ENUMERATION_CAP,
    MAX_CODE_LENGTH,
    BinaryCode,
    BitWord,
    EnumerationCapError,
    LengthMismatchError,
    as_word,
    gf2_reduce_basis,
    gf2_residual,
    is_nested,
)

MAX_LEVELS = 15  # keeps every coordinate value within 16 bits
KEY_BITS = 64  # rep_keys packs a point into one uint64


@dataclass(frozen=True)
class MainCode:
    """A length n*L binary code read as L stacked level words of length n.

    ``MainCode(inner, n, L)`` holds the words: ``inner`` is a ``BinaryCode``
    of length n*L <= 64.  ``MainCode.from_generators(rows, n, L)`` holds a
    linear code by its reduced generator rows alone: ``inner`` is the tuple
    of those rows, for any n*L and 2^k words.  A word is then a member iff
    its residual against the rows (``gf2_residual``) is zero, and words are
    built only when ``levels()`` asks for them, under the enumeration cap.
    Membership, the generators and the projection and zero-antiprojection
    bases answer in both forms.
    """

    inner: BinaryCode | tuple[int, ...]
    n: int
    L: int

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"level count must be >= 1, got {self.L}")
        if self.L > MAX_LEVELS:
            raise ValueError(f"level count {self.L} above the supported {MAX_LEVELS}")
        if isinstance(self.inner, BinaryCode) and self.inner.n != self.n * self.L:
            raise ValueError(
                f"main code length {self.inner.n} != n*L = {self.n}*{self.L}"
            )

    @classmethod
    def from_words(cls, words: Iterable, n: int, L: int) -> "MainCode":
        return cls(BinaryCode.from_words(words, n=n * L), n, L)

    @classmethod
    def from_generators(cls, rows: Iterable[int], n: int, L: int) -> "MainCode":
        """The linear main code spanned by int-packed ``rows`` (level i at bit (i-1)*n)."""
        rows = [int(r) for r in rows]
        if not 1 <= n <= MAX_CODE_LENGTH or any(r >> (n * L) for r in rows):
            raise ValueError(f"generator rows need 1 <= n <= {MAX_CODE_LENGTH} and n*L bits")
        return cls(tuple(gf2_reduce_basis(rows)), n, L)

    @property
    def q(self) -> int:
        return 1 << self.L

    @property
    def num_words(self) -> int:
        return len(self.inner) if isinstance(self.inner, BinaryCode) else 1 << len(self.inner)

    def __len__(self) -> int:
        return self.num_words

    @property
    def linear(self) -> bool:
        return self.inner.linear if isinstance(self.inner, BinaryCode) else True

    def contains(self, word) -> bool:
        if isinstance(self.inner, BinaryCode):
            return word in self.inner
        if isinstance(word, BitWord):
            if word.n != self.n * self.L:
                return False
            word = word.bits
        return not gf2_residual(int(word), self.inner)  # a bit past n*L stays set

    def generators(self) -> list[int]:
        """A basis, leading bits descending (the rows of the generator form)."""
        return self.inner.basis() if isinstance(self.inner, BinaryCode) else list(self.inner)

    def projection_bases(self) -> list[list[int]]:
        """Reduced bases of the projection codes C_1, ..., C_L of a linear
        code: level i of the generators spans C_i."""
        parts = [self.split(g) for g in self.generators()]
        return [gf2_reduce_basis(p[i] for p in parts) for i in range(self.L)]

    def antiprojection_zero_bases(self) -> list[list[int]]:
        """Reduced bases of S_1(0), ..., S_L(0) of a linear code: the level-i
        words of the codewords that are zero at every other level.

        With level i rotated to the bottom n bits, those codewords are the
        ones below 2^n.  A reduced basis spans them by its rows below 2^n,
        since any combination with a row above keeps that row's leading bit.
        """
        nl, gens = self.n * self.L, self.generators()
        full = (1 << nl) - 1
        out = []
        for i in range(self.L):
            s = i * self.n
            rotated = ((g >> s) | ((g << (nl - s)) & full) for g in gens)
            out.append([r for r in gf2_reduce_basis(rotated) if r >> self.n == 0])
        return out

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

    def levels(self, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
        """(L, |C|) uint64 array: row i holds the level-(i+1) word of each
        codeword, in canonical word order (for the generator form, the
        XOR-doubling order of its rows, built only while |C| <= ``cap``)."""
        if isinstance(self.inner, BinaryCode):
            shifts = np.arange(self.L, dtype=np.uint64)[:, None] * np.uint64(self.n)
            return (self.inner.words >> shifts) & np.uint64((1 << self.n) - 1)
        size = self.num_words
        if size > cap:
            raise EnumerationCapError(f"main code has {size} words, above the cap {cap}", size)
        out = np.zeros((self.L, size), dtype=np.uint64)
        for j, row in enumerate(self.inner):
            parts = np.array(self.split(row), dtype=np.uint64)[:, None]
            np.bitwise_xor(out[:, : 1 << j], parts, out=out[:, 1 << j : 2 << j])
        return out


@dataclass(frozen=True)
class CarryRecord:
    """Carries produced when two lifted points are added.

    ``s`` holds the mod-2 carries from level i into level i+1 for
    i = 1..L-1; ``s_star`` is the integer carry vector that spills past
    level L into the q*Z^n translate.
    """

    s: tuple[BitWord, ...]
    s_star: tuple[int, ...]


def _is_int(c) -> bool:
    return isinstance(c, (int, np.integer)) and not isinstance(c, bool)


class PeriodicConstellation:
    """reps + q*Z^n with reps canonically sorted inside {0,...,q-1}^n.

    The reps are stored once, as ``array``: a read-only (m, n) int64 array
    in lexicographic row order.  ``reps`` is a tuple view of it.
    """

    def __init__(self, n: int, L: int, q: int, reps, source: str = "custom"):
        if L < 1 or L > MAX_LEVELS:
            raise ValueError(f"level count {L} outside 1..{MAX_LEVELS}")
        if q != (1 << L):
            raise ValueError(f"period {q} != 2^{L}")
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        # outside input keeps its Python objects, so bools, floats and
        # strings are seen before any cast; ragged rows make a 1-d array
        arr = reps if isinstance(reps, np.ndarray) else np.array(reps, dtype=object)
        if arr.ndim and not len(arr):
            raise ValueError("constellation needs at least one representative")
        if arr.ndim != 2 or arr.shape[1] != n:
            raise ValueError(f"representatives are not all {n}-dimensional")
        integral = all(map(_is_int, arr.flat)) if arr.dtype == object else arr.dtype.kind in "iu"
        if not integral:
            bad = next(row for row in arr.tolist() if not all(map(_is_int, row)))
            raise ValueError(f"representative {bad} has a non-integer coordinate")
        outside = ((arr < 0) | (arr >= q)).any(axis=1)
        if outside.any():
            raise ValueError(f"representative {arr[outside][0].tolist()} outside [0, {q})")
        arr = arr.astype(np.int64)
        arr = arr[np.lexsort(arr.T[::-1])]
        repeated = (arr[1:] == arr[:-1]).all(axis=1)
        if repeated.any():
            raise ValueError(f"representative {arr[1:][repeated][0].tolist()} is repeated")
        arr.flags.writeable = False
        self.n, self.L, self.q, self.source, self.array = n, L, q, source, arr

    @cached_property
    def reps(self) -> tuple[tuple[int, ...], ...]:
        """The sorted reps as tuples of Python ints, built on first read."""
        # row by row: one flat list of all coordinates would be one large
        # block, which leaves the heap fragmented once freed
        return tuple(map(tuple, self.array.tolist()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PeriodicConstellation):
            return NotImplemented
        return (self.n, self.L, self.q, self.source) == (
            other.n, other.L, other.q, other.source
        ) and np.array_equal(self.array, other.array)

    def __len__(self) -> int:
        return len(self.array)

    def has_rep(self, rep: tuple[int, ...]) -> bool:
        """True iff ``rep`` is one of the sorted representatives (no reduction)."""
        i = bisect_left(self.array, rep, key=lambda row: tuple(row.tolist()))
        return i < len(self.array) and tuple(self.array[i].tolist()) == rep

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
            "reps": self.array.tolist(),
        }

    @classmethod
    def from_json(cls, obj) -> "PeriodicConstellation":
        if not isinstance(obj, dict):
            raise ValueError("a constellation file holds one JSON object")
        for key in ("n", "L", "q"):
            if not _is_int(obj[key]):
                raise ValueError(f"constellation {key} must be an integer, got {obj[key]!r}")
        return cls(
            n=obj["n"],
            L=obj["L"],
            q=obj["q"],
            reps=obj["reps"],
            source=str(obj.get("source", "custom")),
        )


def rep_keys(columns: Iterable[np.ndarray], q: int) -> np.ndarray:
    """Base-q uint64 keys of points given as broadcastable columns in [0, q).

    Column 0 is most significant, so keys sort like the points.  Exact while
    q^n <= 2^64; a wider point raises ValueError.  Columns are cast first,
    since int64 mixed with uint64 promotes to float64.
    """
    bits = int(q).bit_length() - 1
    key = np.uint64(0)
    for j, col in enumerate(columns):
        if (j + 1) * bits > KEY_BITS:
            raise ValueError(
                f"base-{q} keys of more than {j} coordinates pass q^n = 2^{KEY_BITS}"
            )
        key = (key << np.uint64(bits)) | np.asarray(col).astype(np.uint64)
    return np.asarray(key)


def _lane_sub(a: np.ndarray, b: np.ndarray, high) -> np.ndarray:
    """(a - b) mod 2^L in every L-bit lane of packed unsigned keys.

    ``high`` holds the top bit of each lane, in the keys' dtype.  Setting it
    in ``a`` and clearing it in ``b`` keeps every lane's borrow inside that
    lane; the XOR then puts back the top bit the lane difference should have.
    """
    return ((a | high) - (b & ~high)) ^ ((a ^ ~b) & high)


def _bit_matrix(words, n: int) -> np.ndarray:
    """(len(words), n) int32 0/1 matrix of int-packed words, coordinate j in column j."""
    arr = np.asarray(words, dtype=np.uint64)
    return ((arr[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(
        np.int32
    )


def construction_a(code: BinaryCode) -> PeriodicConstellation:
    """One-level lift: code + 2*Z^n."""
    if not len(code):
        raise ValueError("cannot lift an empty code")
    reps = _bit_matrix(code.words, code.n)
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
    # digit stacking is injective; the constellation rejects a repeated rep
    return PeriodicConstellation(n=n, L=L, q=1 << L, reps=acc, source="C")


def construction_cstar(
    main: MainCode, cap: int = DEFAULT_ENUMERATION_CAP
) -> PeriodicConstellation:
    """Lift of a main code: one representative per main codeword."""
    size = main.num_words
    if not size:
        raise ValueError("cannot lift an empty main code")
    if size > cap:
        raise EnumerationCapError(
            f"construction C* would enumerate {size} representatives, above {cap}; "
            "use the structured operations for codes of this scale",
            size,
        )
    acc = np.zeros((size, main.n), dtype=np.int32)
    for i, lv in enumerate(main.levels(cap)):
        acc += _bit_matrix(lv, main.n) << i
    return PeriodicConstellation(n=main.n, L=main.L, q=main.q, reps=acc, source="Cstar")


def _greedy_chain_basis(codes: Sequence[BinaryCode]) -> tuple[list[int], list[int]]:
    """Basis of F_2^n whose first k_i vectors span C_i, grown greedily.

    Scans each level's words in canonical sorted order and keeps the ones
    independent of those kept so far.  Returns (basis vectors, [k_1, ...,
    k_L]).  For L >= 3 the rep set of Construction D can depend on the
    basis, so this scan is part of its definition here.  Completing the
    basis beyond k_L is unnecessary: the expansion never uses those vectors.

    Only the rows of a level's fully reduced basis can be kept: any other
    word w of the level is the reduced row r with w's leading bit plus
    words below r, all smaller than w.  So only those rows are scanned, in
    ascending order, O(k) of them for a linear code.
    """
    basis: list[int] = []
    reduced: list[int] = []
    ks: list[int] = []
    for code in codes:
        rows: list[int] = []  # the level's fully reduced basis, ascending
        for r in sorted(code.basis()):
            rows.append(gf2_residual(r, rows[::-1]))
        for w in rows:
            cur = gf2_residual(w, reduced)
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
        if not code.linear:
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
    # incrementally.
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
    # no two expansions meet mod q: mod 2 the level-1 sum fixes its 0/1
    # combination of independent basis vectors, then mod 4 the level-2 sum,
    # and so on; the constellation sorts the reps (and would reject a repeat)
    return PeriodicConstellation(n=n, L=L, q=q, reps=np.mod(acc, q), source="D")


def projection_codes(main: MainCode) -> list[BinaryCode]:
    """The L length-n codes of level words appearing in the main code."""
    return [BinaryCode(main.n, lv) for lv in main.levels()]


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
    keep = np.ones(levels.shape[1], dtype=bool)
    for i, f in zip(others, fixed_ints):
        keep &= levels[i] == np.uint64(f)
    return BinaryCode(main.n, levels[level - 1][keep])


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
    return MainCode(BinaryCode(n * L, words), n, L)
