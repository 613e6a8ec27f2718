import json

import numpy as np
import pytest

from codelat import catalog
from codelat.constructions import (
    MainCode,
    PeriodicConstellation,
    antiprojection,
    associated_construction_c,
    construction_a,
    construction_c,
    construction_cstar,
    construction_d,
    product_main_code,
    projection_codes,
)
from codelat.gf2 import BinaryCode, BitWord, EnumerationCapError, enumerate_from_generator
from oracles import (
    lift_word_to_point,
    oracle_antiprojection_set,
    oracle_product_words,
    oracle_projection_sets,
    oracle_split,
    random_linear_code,
    random_linear_main_code,
    random_words,
)


def test_construction_a_examples():
    d2 = construction_a(BinaryCode.from_words(["00", "11"]))
    assert d2.reps == ((0, 0), (1, 1)) and d2.q == 2
    full = construction_a(BinaryCode(3, range(8)))
    assert len(full) == 8
    zero = construction_a(BinaryCode(3, [0]))
    assert zero.reps == ((0, 0, 0),)


def test_construction_c_figure1_example():
    codes = catalog.worked_example("ex1")
    P = construction_c(codes)
    assert P.q == 4 and set(P.reps) == {(0, 0), (1, 1)}


def test_construction_c_diagonal_example():
    codes = catalog.worked_example("ex2")
    P = construction_c(codes)
    assert set(P.reps) == {(j, j) for j in range(4)} and P.q == 8


def test_construction_c_single_level_reduces_to_a():
    code = BinaryCode.from_words(["00", "11"])
    assert construction_c([code]).reps == construction_a(code).reps


def test_construction_cstar_worked_examples():
    P4 = construction_cstar(catalog.worked_example("ex4"))
    assert set(P4.reps) == {(0, 0), (1, 2), (3, 0), (2, 2)}
    P5 = construction_cstar(catalog.worked_example("ex5"))
    assert set(P5.reps) == {(0, 0), (2, 0), (1, 2), (3, 2)}


def test_cstar_reps_match_direct_lift():
    main = catalog.worked_example("ex9")
    P = construction_cstar(main)
    expected = {lift_word_to_point(w, main.n, main.L) for w in main.inner.words.tolist()}
    assert set(P.reps) == expected


def test_product_main_code_reduces_to_construction_c():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        L = int(rng.integers(1, 4))
        codes = [random_linear_code(rng, n, int(rng.integers(0, n + 1))) for _ in range(L)]
        main = product_main_code(codes)
        assert construction_cstar(main).reps == construction_c(codes).reps


def test_rep_counts():
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        L = int(rng.integers(1, 4))
        main = random_linear_main_code(rng, n, L)
        assert len(construction_cstar(main)) == len(main)
        codes = projection_codes(main)
        total = 1
        for c in codes:
            total *= len(c)
        assert len(construction_c(codes)) == total


def test_cstar_subset_of_associated():
    rng = np.random.default_rng(37)
    for _ in range(40):
        main = random_linear_main_code(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        cstar = set(construction_cstar(main).reps)
        assoc = set(associated_construction_c(main).reps)
        assert cstar <= assoc


def test_construction_d_single_level_is_a():
    code = enumerate_from_generator([0b011, 0b110], n=3)
    assert construction_d([code]).reps == construction_a(code).reps


def test_construction_d_matches_c_on_even_dn_plus():
    for n in (2, 4, 6, 8):
        codes, _ = catalog.dn_plus(n)
        assert construction_d(list(codes)).reps == construction_c(list(codes)).reps


def test_construction_d_diagonal_chain():
    # C_1 = C_2 = {00, 11}: expansion of the two-level sum gives the four
    # diagonal residues mod 4 (a direct expansion has 2^(k1+k2) = 4 terms)
    code = BinaryCode.from_words(["00", "11"])
    P = construction_d([code, code])
    assert set(P.reps) == {(0, 0), (1, 1), (2, 2), (3, 3)}


def test_construction_d_rejects_non_nested():
    a = BinaryCode.from_words(["00", "10"])
    b = BinaryCode.from_words(["00", "01"])
    with pytest.raises(ValueError):
        construction_d([a, b])


def test_construction_d_basis_independent():
    # scanning levels with permuted word order must give the same rep set
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        inner = random_linear_code(rng, n, int(rng.integers(0, n)))
        outer_cols = list(inner.generator or ()) + [
            int(x) for x in rng.integers(0, 1 << n, size=2, dtype=np.uint64)
        ]
        outer = enumerate_from_generator(outer_cols, n=n)
        base = construction_d([inner, outer])
        # same chain, but built from explicit word lists in reversed order
        inner2 = BinaryCode(n, inner.words[::-1])
        outer2 = BinaryCode(n, outer.words[::-1])
        assert construction_d([inner2, outer2]).reps == base.reps


def test_projection_codes_examples():
    c1, c2 = projection_codes(catalog.worked_example("ex4"))
    assert c1.words.tolist() == [0b00, 0b01] and len(c2) == 4
    c1, _, _ = projection_codes(catalog.worked_example("ex9"))
    assert sorted(w.to_tuple() for w in c1.bitwords()) == [(0, 0), (1, 0)]


def test_projection_codes_of_product_recover_factors():
    codes = [BinaryCode.from_words(["000", "111"]), BinaryCode.from_words(["000", "110", "011", "101"])]
    main = product_main_code(codes)
    assert projection_codes(main) == codes


def test_antiprojection_examples():
    main = catalog.worked_example("ex5")
    s2_zero = antiprojection(main, 2, [BitWord.from_string("00")])
    assert sorted(w.to_tuple() for w in s2_zero.bitwords()) == [(0, 0), (1, 0)]
    s2_one = antiprojection(main, 2, [BitWord.from_string("10")])
    assert sorted(w.to_tuple() for w in s2_one.bitwords()) == [(0, 1), (1, 1)]


def test_antiprojection_ex9_at_zero():
    main = catalog.worked_example("ex9")
    s1 = antiprojection(main, 1, [0, 0])
    assert sorted(w.to_tuple() for w in s1.bitwords()) == [(0, 0)]
    s2 = antiprojection(main, 2, [0, 0])
    assert sorted(w.to_tuple() for w in s2.bitwords()) == [(0, 0)]


def test_antiprojection_can_be_empty():
    main = catalog.worked_example("ex4")
    empty = antiprojection(main, 2, [BitWord.from_string("11")])
    assert len(empty) == 0 and empty.linear is False


def test_associated_construction_c_examples():
    assoc = associated_construction_c(catalog.worked_example("ex4"))
    assert len(assoc) == 8
    cstar = construction_cstar(catalog.worked_example("ex4"))
    assert set(cstar.reps) <= set(assoc.reps)
    assoc10 = associated_construction_c(catalog.worked_example("ex10"))
    assert set(assoc10.reps) == {(j,) for j in range(8)}


def test_membership_examples():
    P = construction_cstar(catalog.worked_example("ex4"))
    assert P.contains((5, 6))
    assert not P.contains((1, 1))
    assert P.contains((0, 0))
    assert P.contains((-4, 4))
    with pytest.raises(ValueError):
        P.contains((1, 2, 3))


def test_constellation_json_roundtrip():
    P = construction_cstar(catalog.worked_example("ex9"))
    again = PeriodicConstellation.from_json(json.loads(json.dumps(P.to_json())))
    assert again == P


def test_enumeration_cap_paths():
    big = MainCode(BinaryCode(16, range(16), linear=None), 8, 2)
    with pytest.raises(EnumerationCapError):
        construction_cstar(big, cap=4)


def test_level_operations_match_set_oracles():
    # projections, antiprojections and products of packed main codes up to
    # n*L = 64 bits against plain loops over Python ints
    rng = np.random.default_rng(137)
    for trial in range(200):
        L = int(rng.integers(1, 5))
        n = int(rng.integers(1, 64 // L + 1))
        if trial % 2:
            main = random_linear_main_code(rng, n, L, int(rng.integers(0, 7)))
        else:
            main = MainCode(BinaryCode(n * L, random_words(rng, int(rng.integers(1, 41)), n * L)), n, L)
        words = main.inner.words.tolist()
        expected = oracle_projection_sets(words, n, L)
        assert [c.words.tolist() for c in projection_codes(main)] == [sorted(s) for s in expected]
        level = int(rng.integers(1, L + 1))
        parts = list(oracle_split(words[int(rng.integers(0, len(words)))], n, L))
        del parts[level - 1]
        for fixed in (parts, random_words(rng, L - 1, n)):
            got = antiprojection(main, level, fixed).words.tolist()
            assert got == sorted(oracle_antiprojection_set(words, n, L, level, fixed))
        levels = [random_words(rng, int(rng.integers(1, 4)), n) for _ in range(L)]
        product = product_main_code([BinaryCode(n, lv) for lv in levels])
        assert product.inner.words.tolist() == sorted(oracle_product_words(levels, n))
