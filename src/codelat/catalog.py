"""Built-in codes and constructions: Golay-24, D_n+ families, the worked
example codes, and the structured Leech main code.

The Leech main code has 2 * 4096 * 2^23 = 2^36 words and is never
materialised; it is exposed through a membership predicate, a stream of
8192 (level-1, Golay word, parity) prefixes, and structural summaries of
its projections and zero-antiprojections.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .constructions import MainCode
from .gf2 import BinaryCode, BitWord, as_word, enumerate_from_generator

# 12x12 block of the Golay parity-check matrix H = (B | I); the generator
# is G = (I / B) stacked, codewords (a, B*a).
GOLAY_B_ROWS = (
    "110111000101",
    "101110001011",
    "011100010111",
    "111000101101",
    "110001011011",
    "100010110111",
    "000101101111",
    "001011011101",
    "010110111001",
    "101101110001",
    "011011100011",
    "111111111110",
)


def golay_b_matrix() -> list[list[int]]:
    return [[int(ch) for ch in row] for row in GOLAY_B_ROWS]


@lru_cache(maxsize=1)
def golay24() -> BinaryCode:
    """The [24, 12, 8] extended Golay code generated by (I | B) columns."""
    b = golay_b_matrix()
    columns = []
    for j in range(12):
        col = 1 << j
        for r in range(12):
            if b[r][j]:
                col |= 1 << (12 + r)
        columns.append(col)
    code = enumerate_from_generator(columns, n=24)
    if len(code) != 4096:
        raise AssertionError("Golay generator must span 4096 words")
    return code


def repetition_code(n: int) -> BinaryCode:
    return enumerate_from_generator([(1 << n) - 1], n=n)


def even_parity_code(n: int) -> BinaryCode:
    """All even-weight words of length n, rank n-1."""
    if n < 2:
        raise ValueError(f"parity code needs n >= 2, got {n}")
    cols = [0b11 << i for i in range(n - 1)]
    return enumerate_from_generator(cols, n=n)


def dn_plus(n: int) -> tuple[tuple[BinaryCode, BinaryCode], bool]:
    """Repetition and even-parity two-level family; a lattice iff n is even."""
    if n < 2:
        raise ValueError(f"D_n+ needs n >= 2, got {n}")
    return (repetition_code(n), even_parity_code(n)), n % 2 == 0


def _main(words: list[str], n: int, L: int) -> MainCode:
    return MainCode.from_words([BitWord.from_string(w) for w in words], n=n, L=L)


@lru_cache(maxsize=None)
def worked_example(example_id: str):
    """Catalog of the worked example codes.

    Returns a MainCode for the joint-lift examples and a list of level
    codes for the independent-level ones ("ex1", "ex2").
    """
    ex = example_id.lower()
    if ex == "ex1":
        return [
            BinaryCode.from_words(["00", "11"]),
            BinaryCode.from_words(["00"]),
        ]
    if ex == "ex2":
        return [
            BinaryCode.from_words(["00", "11"]),
            BinaryCode.from_words(["00", "11"]),
            BinaryCode.from_words(["00"]),
        ]
    if ex == "ex4":
        return _main(["0000", "1001", "1010", "0011"], n=2, L=2)
    if ex in ("ex5", "ex7"):
        # ex7 studies the antiprojections of the ex5 code
        return _main(["0000", "0010", "1001", "1011"], n=2, L=2)
    if ex == "ex9":
        return _main(
            [
                "000000",
                "101101",
                "001011",
                "100110",
                "000010",
                "001001",
                "100100",
                "101111",
            ],
            n=2,
            L=3,
        )
    if ex == "ex10":
        return _main(["000", "101", "011", "110"], n=1, L=3)
    if ex == "ex13":
        return _main(
            ["00000000", "11111100", "00001111", "11110011"], n=4, L=2
        )
    if ex == "ex13-swapped":
        base = worked_example("ex13")
        swapped = []
        for w in base.inner.words.tolist():
            c1, c2 = base.split(w)
            swapped.append(base.join((c2, c1)))
        return MainCode(BinaryCode(base.inner.n, swapped), base.n, base.L)
    raise KeyError(f"unknown catalog id {example_id!r}")


CATALOG_IDS = (
    "ex1",
    "ex2",
    "ex4",
    "ex5",
    "ex7",
    "ex9",
    "ex10",
    "ex13",
    "ex13-swapped",
    "leech",
    "golay24",
)


@dataclass(frozen=True)
class LeechMainCode:
    """Structured main code of the three-level Leech lift.

    Words are (c1, c2, c3) with c1 the all-zeros or all-ones word, c2 any
    Golay codeword and c3 of even weight when c1 = 0, odd weight when
    c1 = 1.  Size 2 * 4096 * 2^23 = 2^36.
    """

    golay: BinaryCode

    n: int = 24
    L: int = 3
    log2_size: int = 36

    @property
    def q(self) -> int:
        return 8

    @property
    def num_words(self) -> int:
        return 1 << self.log2_size

    @property
    def linear(self) -> bool:
        return True

    def generators(self) -> list[int]:
        """The 36 basis words, packed as main words (level i at bits 24*(i-1)).

        The all-ones level-1 word paired with an odd level-3 word, the 12
        Golay generators at level 2 and the 23 even-weight generators
        e_j + e_{j+1} at level 3.
        """
        ones = (1 << 24) - 1
        return (
            [ones | (1 << 48)]
            + [g << 24 for g in self.golay.generator]
            + [(0b11 << j) << 48 for j in range(23)]
        )

    def contains(self, word) -> bool:
        w = as_word(word, 72).bits
        mask = (1 << 24) - 1
        c1 = w & mask
        c2 = (w >> 24) & mask
        c3 = (w >> 48) & mask
        if c1 not in (0, mask):
            return False
        if c2 not in self.golay:
            return False
        want_odd = c1 == mask
        return (c3.bit_count() & 1) == (1 if want_odd else 0)

    def prefixes(self) -> Iterator[tuple[tuple[int, int], int]]:
        """All 8192 ((c1, c2), parity of c3) prefixes of the code."""
        ones = (1 << 24) - 1
        words = self.golay.words.tolist()
        for word in words:
            yield (0, word), 0
        for word in words:
            yield (ones, word), 1

    def antiprojection_zero(self, level: int) -> BinaryCode:
        """S_level(0, ..., 0) derived from the membership structure.

        Level 1 pins c2 = 0 (a Golay word) and an even-weight c3 = 0, so
        only the zero word remains.  Level 2 allows any Golay word.  Level
        3 is the even-weight code (c1 = 0 forces even parity); it is
        returned in generator form and never materialised here.
        """
        if level == 1:
            return BinaryCode(24, [0])
        if level == 2:
            return self.golay
        if level == 3:
            return even_parity_code(24)
        raise ValueError(f"level {level} outside 1..3")

    def projection_summary(self) -> list[dict]:
        """Size and minimum nonzero weight of each projection code.

        Level 3 covers all of F_2^24 (both parity classes appear), hence
        minimum weight 1.
        """
        return [
            {"level": 1, "log2_size": 1, "min_weight": 24},
            {"level": 2, "log2_size": 12, "min_weight": golay24().min_nonzero_weight()},
            {"level": 3, "log2_size": 24, "min_weight": 1},
        ]

    def antiprojection_zero_summary(self) -> list[dict]:
        """Minimum nonzero weights of the zero antiprojections (None if {0})."""
        return [
            {"level": 1, "min_weight": None},
            {"level": 2, "min_weight": self.golay.min_nonzero_weight()},
            {"level": 3, "min_weight": 2},
        ]

    def dmin_upper_bound(self) -> int:
        """min over levels of 4^(i-1) * d_H(S_i(0)), capped by 4^L."""
        best = 4**self.L
        for entry in self.antiprojection_zero_summary():
            if entry["min_weight"] is not None:
                best = min(best, 4 ** (entry["level"] - 1) * entry["min_weight"])
        return best

    def associated_dmin_formula(self) -> int:
        """Distance formula of the associated independent-level lift."""
        best = 4**self.L
        for entry in self.projection_summary():
            best = min(best, 4 ** (entry["level"] - 1) * entry["min_weight"])
        return best

    def log2_associated_size(self) -> int:
        return 1 + 12 + 24


@lru_cache(maxsize=1)
def leech_main_code() -> LeechMainCode:
    return LeechMainCode(golay=golay24())

