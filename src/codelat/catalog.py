"""Built-in codes and constructions: Golay-24, D_n+ families, the worked
example codes, and the Leech main code.

The Leech main code has 2 * 4096 * 2^23 = 2^36 words and is never
materialised: it is held by its 36 generator rows, so the general deciders
and distance formulas read it as they read any linear main code, and it
also streams its 8192 (level-1, Golay word, parity) prefixes.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .constructions import MainCode
from .gf2 import BinaryCode, BitWord, enumerate_from_generator

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


class LeechMainCode(MainCode):
    """The three-level main code whose C* lift is the Leech lattice.

    Its 2^36 words are (c1, c2, c3): c1 the all-zeros or all-ones word, c2
    any Golay codeword, and c3 of even weight when c1 = 0, odd when c1 = 1.
    It is a generator-form ``MainCode`` like any other; it adds only the
    Golay code and the prefix stream that ``dmin_to_zero_structured`` reads.
    """

    @property
    def golay(self) -> BinaryCode:
        return golay24()

    def prefixes(self) -> Iterator[tuple[tuple[int, int], int]]:
        """All 8192 ((c1, c2), parity of c3) prefixes of the code."""
        ones = (1 << 24) - 1
        words = self.golay.words.tolist()
        for word in words:
            yield (0, word), 0
        for word in words:
            yield (ones, word), 1


@lru_cache(maxsize=1)
def leech_main_code() -> LeechMainCode:
    """The Leech main code from its 36 generator rows: the all-ones level-1
    word with an odd level-3 word, the 12 Golay basis rows at level 2 and
    the 23 even-weight words e_j + e_{j+1} at level 3."""
    ones = (1 << 24) - 1
    rows = (
        [ones | (1 << 48)]
        + [g << 24 for g in golay24().basis()]
        + [0b11 << (48 + j) for j in range(23)]
    )
    return LeechMainCode.from_generators(rows, n=24, L=3)
