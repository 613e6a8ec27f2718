"""Binary-word and linear-code algebra over GF(2).

Words are fixed-length bit vectors packed into integers (bit ``j`` is
coordinate ``j``).  A single word is a ``BitWord`` over a Python int of any
length.  A code of length n <= 64 stores its words once, as a sorted,
deduplicated, read-only ``np.uint64`` array, so membership is a binary
search and weights, XORs and Schur products run over the whole array.
A code is its words alone: its linearity flag is verified from them, and
a linear code's basis is read off them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

DEFAULT_ENUMERATION_CAP = 1 << 26
_VERIFY_SLICE = 1 << 16  # words per comparison in the linearity pass
MAX_CODE_LENGTH = 64  # one np.uint64 per codeword


class LengthMismatchError(ValueError):
    """Raised when two words of different lengths are combined."""


class EnumerationCapError(RuntimeError):
    """Raised when a code or constellation would exceed the enumeration cap."""

    def __init__(self, message: str, estimated_size: int):
        super().__init__(message)
        self.estimated_size = estimated_size


class CodeFileError(ValueError):
    """Raised on malformed code files; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class BitWord:
    """A length-``n`` vector over GF(2), packed into an int (bit j = coord j)."""

    bits: int
    n: int

    def __post_init__(self):
        object.__setattr__(self, "bits", operator.index(self.bits))  # numpy ints too
        if self.n < 1:
            raise ValueError(f"word length must be >= 1, got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bits 0x{self.bits:x} out of range for length {self.n}")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitWord":
        seq = list(bits)
        value = 0
        for j, b in enumerate(seq):
            if b not in (0, 1):
                raise ValueError(f"coordinate {j} is {b}, expected 0 or 1")
            value |= b << j
        return cls(value, len(seq))

    @classmethod
    def from_string(cls, text: str) -> "BitWord":
        return cls.from_bits(int(ch) for ch in text.strip())

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.n:
            raise IndexError(j)
        return (self.bits >> j) & 1

    def __iter__(self) -> Iterator[int]:
        return (self[j] for j in range(self.n))

    def to_tuple(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def __xor__(self, other: "BitWord") -> "BitWord":
        _check_same_length(self, other)
        return BitWord(self.bits ^ other.bits, self.n)

    def __and__(self, other: "BitWord") -> "BitWord":
        _check_same_length(self, other)
        return BitWord(self.bits & other.bits, self.n)

    def __str__(self) -> str:
        return "".join(str(b) for b in self)


def _check_same_length(x: BitWord, y: BitWord) -> None:
    if x.n != y.n:
        raise LengthMismatchError(f"word lengths differ: {x.n} vs {y.n}")


def as_word(value, n: int | None = None) -> BitWord:
    """Coerce an int, bit sequence, string or BitWord into a BitWord."""
    if isinstance(value, BitWord):
        return value
    if isinstance(value, (int, np.integer)):
        if n is None:
            raise ValueError("length required when coercing an int to a word")
        return BitWord(value, n)
    if isinstance(value, str):
        return BitWord.from_string(value)
    return BitWord.from_bits(value)


def gf2_residual(word: int, basis: Sequence[int]) -> int:
    """``word`` reduced against ``basis``, rows with distinct leading bits in
    decreasing order (as ``gf2_reduce_basis`` returns them).

    The residual has none of those leading bits set, so it is zero iff
    ``word`` lies in the span, and it is linear in ``word``.
    """
    for b in basis:
        word = min(word, word ^ b)
    return word


def gf2_reduce_basis(vectors: Iterable[int]) -> list[int]:
    """The reduced row echelon form of the span of int-packed vectors.

    Rows go with leading bits strictly decreasing, and no row holds another
    row's leading bit, so the list is unique to the span: for a linear
    code it is ``BinaryCode.basis()``.
    """
    basis: list[int] = []
    for v in vectors:
        cur = gf2_residual(v, basis)  # holds no leading bit of the basis
        if cur:
            top = 1 << (cur.bit_length() - 1)
            basis = [b ^ cur if b & top else b for b in basis]
            basis.append(cur)
            basis.sort(reverse=True)
    return basis


def span_doubling(rows: np.ndarray, add=np.bitwise_xor) -> np.ndarray:
    """The 2^k subset sums of the k ``rows`` (a (k, ...) array), along a new
    last axis: entry i sums the rows j with bit j of i set, built by
    doubling, so row 0 alternates fastest.  ``add`` is the sum (XOR for a
    GF(2) span, ``np.add`` for integer combinations)."""
    rows = np.asarray(rows)
    out = np.zeros(rows.shape[1:] + (1 << len(rows),), dtype=rows.dtype)
    for j, row in enumerate(rows):
        add(out[..., : 1 << j], row[..., None], out=out[..., 1 << j : 2 << j])
    return out


class BinaryCode:
    """A deduplicated set of equal-length binary words, n <= 64.

    ``words`` is the sorted, read-only ``np.uint64`` array of the codewords;
    convert with ``.tolist()`` before Python-level loops or JSON.
    ``linear`` tells whether the words form a linear code; every set is
    checked in one vectorised pass (see ``_verify_linearity``).
    """

    __slots__ = ("n", "words", "linear")

    def __init__(self, n: int, words: Iterable[int]):
        if not 1 <= n <= MAX_CODE_LENGTH:
            raise ValueError(f"code length must be in 1..{MAX_CODE_LENGTH}, got {n}")
        try:
            arr = np.array(
                words if isinstance(words, np.ndarray) else list(words), dtype=np.uint64
            )
        except OverflowError:
            raise ValueError(f"word out of range for length {n}") from None
        if not (arr[1:] > arr[:-1]).all():
            arr = np.unique(arr)
        if arr.size and arr[-1] > np.uint64((1 << n) - 1):
            raise ValueError(f"word out of range for length {n}")
        arr.flags.writeable = False
        self.n = n
        self.words = arr
        self.linear = self._verify_linearity()

    def _verify_linearity(self) -> bool:
        """One doubling pass: a linear code's sorted words are the XOR-doubling
        enumeration of its reduced row echelon form ``words[1 << j]``, and a
        set of 2^k distinct words that this enumeration reproduces is that span.
        Compared in slices of ``_VERIFY_SLICE`` words, so the temporaries
        stay small whatever the size."""
        size, words = len(self), self.words
        if not size or words[0] != 0 or size & (size - 1):
            return False
        for j in range(size.bit_length() - 1):
            half, top = 1 << j, words[1 << j]
            for s in range(0, half, _VERIFY_SLICE):
                t = min(s + _VERIFY_SLICE, half)
                if not np.array_equal(words[half + s : half + t], words[s:t] ^ top):
                    return False
        return True

    @classmethod
    def from_words(cls, words: Iterable, n: int | None = None) -> "BinaryCode":
        ints = []
        for w in words:
            bw = as_word(w, n)
            if n is None:
                n = bw.n
            elif bw.n != n:
                raise LengthMismatchError(f"word lengths differ: {bw.n} vs {n}")
            ints.append(bw.bits)
        if n is None:
            raise ValueError("cannot infer word length from an empty word list")
        return cls(n, ints)

    @property
    def _word_set(self) -> "BinaryCode":
        """Read-only alias of the code itself, for ``x in code._word_set``."""
        return self

    def __len__(self) -> int:
        return len(self.words)

    def member_mask(self, probes) -> np.ndarray:
        """Which of the ``probes`` (cast to ``np.uint64``) are codewords.

        The cast comes first: searching with Python ints may promote the
        array to float64, which is slow and wrong above 2^53.
        """
        probes = np.asarray(probes, dtype=np.uint64)
        if not len(self):
            return np.zeros(probes.shape, dtype=bool)
        idx = np.minimum(self.words.searchsorted(probes), len(self) - 1)
        return self.words[idx] == probes

    def __contains__(self, word) -> bool:
        if isinstance(word, BitWord):
            if word.n != self.n:
                return False
            word = word.bits
        word = int(word)
        return 0 <= word < (1 << self.n) and bool(self.member_mask([word])[0])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryCode)
            and self.n == other.n
            and np.array_equal(self.words, other.words)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.words.tobytes()))

    def __repr__(self) -> str:
        return f"BinaryCode(n={self.n}, size={len(self)}, linear={self.linear})"

    def basis(self) -> list[int]:
        """The reduced row echelon form of the span (``gf2_reduce_basis``).

        For a linear code it is read off the sorted words in O(k): they
        enumerate its span by XOR doubling, so ``words[1 << j]`` is its j-th
        row.  Else it is reduced from all the words.
        """
        if self.linear:
            k = len(self).bit_length() - 1
            return self.words[[1 << j for j in reversed(range(k))]].tolist()
        return gf2_reduce_basis(self.words.tolist())

    def rank(self) -> int:
        return len(self.basis())

    def min_nonzero_weight(self) -> int:
        """Smallest weight among nonzero words; code must contain one."""
        weights = np.bitwise_count(self.words[self.words != 0])
        if not weights.size:
            raise ValueError("code has no nonzero word")
        return int(weights.min())


def enumerate_from_generator(
    columns: Sequence[int] | Sequence[Sequence[int]],
    n: int | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> BinaryCode:
    """Enumerate the column span {G*a : a in F_2^k} of a generator matrix.

    ``columns`` are the basis words, each an int-packed word or a 0/1 bit
    sequence.  The result always has exactly 2**rank(G) distinct words.
    """
    cols = []
    for c in columns:
        if isinstance(c, (int, np.integer)):
            cols.append(int(c))
        else:
            bw = BitWord.from_bits(c)
            if n is None:
                n = bw.n
            cols.append(bw.bits)
    if n is None:
        raise ValueError("word length required with int-packed columns")
    basis = gf2_reduce_basis(cols)
    size = 1 << len(basis)
    if size > cap:
        raise EnumerationCapError(
            f"generator spans 2^{len(basis)} = {size} words, above the cap {cap}",
            size,
        )
    # no row holds another's leading bit, so XOR doubling of the rows,
    # leading bits ascending, emits the span in sorted order
    words = span_doubling(np.array(basis[::-1], dtype=np.uint64))
    return BinaryCode(n, words)


def gf2_min_weight(basis: Sequence[int]) -> int | None:
    """Smallest weight of a nonzero word in the span of ``basis`` (as for
    ``gf2_residual``; words of at most 64 bits), None when the span is {0}.

    A weight-w word lies in the span iff the residuals of its w unit vectors
    XOR to zero.  Weights are tried in increasing order while the words
    tried stay fewer than the 2^k of the span and the enumeration cap;
    past that the span itself is enumerated, under the cap.  So a span of nearly
    all of F_2^n is never built: F_2^24 answers at its first unit vector.
    """
    if not basis:
        return None
    n = basis[0].bit_length()  # the span lives on the bits below the top leading bit
    units = np.array([gf2_residual(1 << j, basis) for j in range(n)], dtype=np.uint64)
    groups = [np.zeros(0, dtype=np.uint64)] * n  # XORs of the w-subsets, by largest index
    tried = 0
    for w in range(1, n + 1):
        tried += math.comb(n, w)
        if tried > min(1 << len(basis), DEFAULT_ENUMERATION_CAP):
            break
        # the (w-1)-subsets below index j, the empty one first when w = 1
        below = np.concatenate([np.zeros(int(w == 1), dtype=np.uint64)] + groups)
        ends = np.cumsum([int(w == 1)] + [len(g) for g in groups[:-1]])
        groups = [below[:end] ^ unit for end, unit in zip(ends, units)]
        if not all(g.all() for g in groups):
            return w
    span = enumerate_from_generator(basis, n=n, cap=DEFAULT_ENUMERATION_CAP)
    return span.min_nonzero_weight()


def min_hamming_distance(code: BinaryCode) -> int:
    """Minimum Hamming distance over all distinct codeword pairs.

    For linear codes this is the minimum nonzero weight; otherwise
    a full pair scan runs.
    """
    if len(code) < 2:
        raise ValueError("minimum distance needs at least two codewords")
    if code.linear:
        return code.min_nonzero_weight()
    arr = code.words
    return min(int(np.bitwise_count(arr[i] ^ arr[i + 1 :]).min()) for i in range(len(arr) - 1))


def is_nested(inner: BinaryCode, outer: BinaryCode) -> bool:
    """True iff every word of ``inner`` is a word of ``outer``."""
    if inner.n != outer.n:
        raise LengthMismatchError(f"code lengths differ: {inner.n} vs {outer.n}")
    return bool(outer.member_mask(inner.words).all())


# Code file format: line 1 is "n k" (generator form, k basis rows follow)
# or "n *" (explicit form, one codeword per line).  '#' starts a comment.

def parse_code_text(text: str, cap: int = DEFAULT_ENUMERATION_CAP) -> BinaryCode:
    lines = text.splitlines()
    payload: list[tuple[int, list[str]]] = []
    for idx, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            payload.append((idx, stripped.split()))
    if not payload:
        raise CodeFileError("empty code file", 1)
    head_line, head = payload[0]
    if len(head) != 2:
        raise CodeFileError("header must be 'n k' or 'n *'", head_line)
    try:
        n = int(head[0])
    except ValueError:
        raise CodeFileError(f"bad length {head[0]!r}", head_line) from None
    if not 1 <= n <= MAX_CODE_LENGTH:
        raise CodeFileError(
            f"length must be in 1..{MAX_CODE_LENGTH}, got {n}", head_line
        )

    rows: list[int] = []
    for line_no, toks in payload[1:]:
        if len(toks) != n:
            raise CodeFileError(f"expected {n} bits, got {len(toks)}", line_no)
        value = 0
        for j, tok in enumerate(toks):
            if tok not in ("0", "1"):
                raise CodeFileError(f"bad bit {tok!r} at coordinate {j + 1}", line_no)
            value |= int(tok) << j
        rows.append(value)

    if head[1] == "*":
        if not rows:
            raise CodeFileError("explicit code lists no codewords", head_line)
        return BinaryCode(n, rows)
    try:
        k = int(head[1])
    except ValueError:
        raise CodeFileError(f"bad rank {head[1]!r}", head_line) from None
    if len(rows) != k:
        raise CodeFileError(f"expected {k} generator rows, got {len(rows)}", head_line)
    return enumerate_from_generator(rows, n=n, cap=cap)


def read_code_file(path, cap: int = DEFAULT_ENUMERATION_CAP) -> BinaryCode:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code_text(fh.read(), cap=cap)
