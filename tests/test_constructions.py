import json

import numpy as np
import pytest

from codelat import catalog
from codelat.constructions import (
    MainCode,
    PeriodicConstellation,
    _greedy_chain_basis,
    antiprojection,
    associated_construction_c,
    construction_a,
    construction_c,
    construction_cstar,
    construction_d,
    product_main_code,
    projection_codes,
)
from codelat.geometry import (
    distance_spectrum,
    dmin_oracle,
    dmin_to_zero,
    eds_check,
    equi_min_distance_check,
    isometry_orbit_check,
)
from codelat.gf2 import BinaryCode, BitWord, EnumerationCapError, enumerate_from_generator
from codelat.latticeness import brute_closure_oracle
from codelat.packing import packing_report
from oracles import (
    generator_twin,
    lift_word_to_point,
    oracle_antiprojection_set,
    oracle_greedy_chain_basis,
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


def test_construction_d_chain_basis_is_the_sorted_word_scan():
    # level codes held by words and by unreduced generators alike
    rng = np.random.default_rng(181)
    for _ in range(60):
        n, L = int(rng.integers(2, 7)), int(rng.integers(1, 5))
        gens = [int(x) for x in rng.integers(1, 1 << n, size=n, dtype=np.uint64)]
        ks = sorted(int(k) for k in rng.integers(0, n + 1, size=L))
        codes = [enumerate_from_generator(gens[:k], n=n) for k in ks]
        assert _greedy_chain_basis(codes) == oracle_greedy_chain_basis(codes)
        words = [BinaryCode(n, code.words) for code in codes]
        assert _greedy_chain_basis(words) == oracle_greedy_chain_basis(codes)


def test_construction_d_three_levels_pin_the_chain_basis():
    # C_1 * C_1 is not in C_2 here, and the reps depend on the basis: the
    # sorted scan keeps 1100 then 0110, so 2 * (0, 1, 1, 0) is a rep, which
    # the basis 1100, 1010 would not give
    c1 = BinaryCode(4, [0b0000, 0b1100])
    c2 = BinaryCode(4, [0b0000, 0b0110, 0b1010, 0b1100])
    assert _greedy_chain_basis([c1, c2, c2]) == ([0b1100, 0b0110], [1, 2, 2])
    P = construction_d([c1, c2, c2])
    assert len(P) == 32 and (0, 2, 2, 0) in set(P.reps)


def test_construction_d_reps_are_the_sorted_expansions():
    # every 0/1 combination of each level's first k_i chain-basis vectors,
    # summed over levels with weight 2^(i-1) and reduced mod q, collected
    # in a set: the reps must be exactly its sorted elements, and no two
    # combinations may meet
    rng = np.random.default_rng(59)
    for _ in range(20):
        n, L = int(rng.integers(2, 6)), int(rng.integers(1, 4))
        gens = [int(x) for x in rng.integers(1, 1 << n, size=n, dtype=np.uint64)]
        ks = sorted(int(k) for k in rng.integers(0, n + 1, size=L))
        codes = [
            enumerate_from_generator(gens[:k], n=n) if k else BinaryCode(n, [0])
            for k in ks
        ]
        basis, chain = _greedy_chain_basis(codes)
        rows = [[(w >> j) & 1 for j in range(n)] for w in basis]
        q = 1 << L
        points = {(0,) * n}
        for i, k in enumerate(chain):
            sums = {
                tuple(sum(rows[b][j] for b in range(k) if mask >> b & 1) for j in range(n))
                for mask in range(1 << k)
            }
            points = {tuple((p + (s << i)) % q for p, s in zip(pt, sm)) for pt in points for sm in sums}
        assert construction_d(codes).reps == tuple(sorted(points))
        assert len(points) == 1 << sum(chain)


def test_projection_codes_examples():
    c1, c2 = projection_codes(catalog.worked_example("ex4"))
    assert c1.words.tolist() == [0b00, 0b01] and len(c2) == 4
    c1, _, _ = projection_codes(catalog.worked_example("ex9"))
    assert sorted(BitWord(w, c1.n).to_tuple() for w in c1.words.tolist()) == [(0, 0), (1, 0)]


def test_projection_codes_of_product_recover_factors():
    codes = [BinaryCode.from_words(["000", "111"]), BinaryCode.from_words(["000", "110", "011", "101"])]
    main = product_main_code(codes)
    assert projection_codes(main) == codes


def test_antiprojection_examples():
    main = catalog.worked_example("ex5")
    s2_zero = antiprojection(main, 2, [BitWord.from_string("00")])
    assert sorted(BitWord(w, s2_zero.n).to_tuple() for w in s2_zero.words.tolist()) == [(0, 0), (1, 0)]
    s2_one = antiprojection(main, 2, [BitWord.from_string("10")])
    assert sorted(BitWord(w, s2_one.n).to_tuple() for w in s2_one.words.tolist()) == [(0, 1), (1, 1)]


def test_antiprojection_ex9_at_zero():
    main = catalog.worked_example("ex9")
    s1 = antiprojection(main, 1, [0, 0])
    assert sorted(BitWord(w, s1.n).to_tuple() for w in s1.words.tolist()) == [(0, 0)]
    s2 = antiprojection(main, 2, [0, 0])
    assert sorted(BitWord(w, s2.n).to_tuple() for w in s2.words.tolist()) == [(0, 0)]


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


def test_product_main_code_linearity_is_read_from_the_words():
    full = enumerate_from_generator([1 << j for j in range(6)], n=6)
    even = enumerate_from_generator([0b11 << j for j in range(5)], n=6)
    assert product_main_code([even, full, full]).linear is True  # 2^17 words
    assert product_main_code([even, BinaryCode(6, [0, 1, 2]), full]).linear is False


def test_enumeration_cap_paths():
    big = MainCode(BinaryCode(16, range(16)), 8, 2)
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


def test_constellation_rejects_malformed_reps():
    with pytest.raises(ValueError, match="2-dimensional"):
        PeriodicConstellation(n=2, L=1, q=2, reps=((0, 0, 0), (1, 1, 1)))
    with pytest.raises(ValueError):
        PeriodicConstellation(n=2, L=1, q=2, reps=((0, 0), (1,)))
    with pytest.raises(ValueError, match="outside"):
        PeriodicConstellation(n=2, L=2, q=4, reps=((0, 0), (1, 4)))
    with pytest.raises(ValueError, match="outside"):
        PeriodicConstellation(n=2, L=2, q=4, reps=((0, -1),))
    with pytest.raises(ValueError, match="outside"):
        PeriodicConstellation(n=2, L=2, q=4, reps=((0, 0), (1 << 70, 0)))
    with pytest.raises(ValueError, match="repeated"):
        PeriodicConstellation(n=2, L=1, q=2, reps=((0, 0), (1, 1), (1, 1)))
    with pytest.raises(ValueError, match="repeated"):
        PeriodicConstellation(n=2, L=1, q=2, reps=((1, 1), (0, 0), (1, 1)))
    with pytest.raises(ValueError, match="repeated"):
        PeriodicConstellation.from_json(
            {"n": 2, "L": 1, "q": 2, "reps": [[0, 0], [1, 1], [1, 1]]}
        )
    # coordinates are integers: no truncated floats, bools or strings
    for reps in ([[0.5, 1]], [[0, 0], [True, 1]], [["0", "1"]], np.array([[1.0, 2.0]])):
        with pytest.raises(ValueError, match="non-integer coordinate"):
            PeriodicConstellation(n=2, L=2, q=4, reps=reps)
    with pytest.raises(ValueError, match="one JSON object"):
        PeriodicConstellation.from_json([1, 2])
    with pytest.raises(ValueError, match="n must be an integer, got 2.7"):
        PeriodicConstellation.from_json({"n": 2.7, "L": 2, "q": 4, "reps": [[0, 1]]})


def test_constellation_sorts_unsorted_reps():
    P = PeriodicConstellation(n=2, L=2, q=4, reps=((3, 0), (0, 2), (0, 1), (1, 3)))
    assert P.reps == ((0, 1), (0, 2), (1, 3), (3, 0))
    assert all(type(c) is int for r in P.reps for c in r)
    assert P.array.tolist() == [list(r) for r in P.reps]
    rng = np.random.default_rng(163)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        L = int(rng.integers(1, 4))
        points = {tuple(r) for r in rng.integers(0, 1 << L, size=(12, n)).tolist()}
        shuffled = list(points)
        rng.shuffle(shuffled)
        P = PeriodicConstellation(n=n, L=L, q=1 << L, reps=np.array(shuffled))
        assert P.reps == tuple(sorted(points))


def test_lifts_and_scans_read_only_the_stored_array():
    # the scans, lifts and to_json never build the reps tuple view, and
    # the one stored array cannot be written through
    repetition = BinaryCode.from_words(["0000", "1111"])
    even = enumerate_from_generator([0b0011, 0b0110, 0b1100], n=4)
    lifts = [
        construction_a(even),
        construction_c([repetition, even]),
        construction_cstar(catalog.worked_example("ex9")),
        construction_d([repetition, even]),
    ]
    for P in lifts:
        brute_closure_oracle(P)
        dmin_oracle(P)
        equi_min_distance_check(P)
        rep = P.array[-1].tolist()
        distance_spectrum(P, rep, P.q)
        eds_check(P)
        dmin_to_zero(P)
        packing_report(P)
        P.to_json()
        isometry_orbit_check(P, rep, [1] * P.n)
        assert "reps" not in vars(P)
        assert P.array.dtype == np.int64 and P.array.shape == (len(P), P.n)
        with pytest.raises(ValueError, match="read-only"):
            P.array[0, 0] = 1


def test_generator_form_matches_word_form():
    # contains, the generators' span, the projection and zero-antiprojection
    # bases and the C* lift, on random linear main codes with n*L <= 64
    # (k = 0 included)
    rng = np.random.default_rng(157)
    for trial in range(150):
        L = int(rng.integers(1, 5))
        n = int(rng.integers(1, 64 // L + 1))
        k = 0 if trial < 5 else int(rng.integers(0, min(n * L, 9) + 1))
        main = random_linear_main_code(rng, n, L, k)
        twin = generator_twin(rng, main)
        assert twin.inner == tuple(twin.generators()) and twin.linear is True
        assert twin.num_words == len(twin) == len(main)
        span = enumerate_from_generator(twin.generators(), n=n * L)
        assert span == main.inner
        probes = main.inner.words.tolist() + random_words(rng, 50, n * L)
        probes += [w ^ (1 << int(rng.integers(0, n * L))) for w in probes[:20]]
        assert [twin.contains(w) for w in probes] == [main.contains(w) for w in probes]
        assert not twin.contains(1 << (n * L)) and not twin.contains(BitWord(0, n * L + 1))
        projections = projection_codes(main)
        for basis, code in zip(twin.projection_bases(), projections):
            assert enumerate_from_generator(basis, n=n) == code
        for level, basis in enumerate(twin.antiprojection_zero_bases(), start=1):
            expected = antiprojection(main, level, [0] * (L - 1))
            assert enumerate_from_generator(basis, n=n) == expected
        assert construction_cstar(twin) == construction_cstar(main)


def test_generator_form_enumerates_only_under_the_cap():
    leech = catalog.leech_main_code()
    assert len(leech.inner) == 36 and leech.num_words == 1 << 36
    with pytest.raises(EnumerationCapError):
        leech.levels()
    with pytest.raises(EnumerationCapError):
        construction_cstar(leech)
    with pytest.raises(ValueError, match=r"n\*L bits"):
        MainCode.from_generators([1 << 6], n=3, L=2)


def test_construction_d_chain_with_a_2_14_word_level():
    # the chain basis comes from each level's basis, not its 2^14 words
    n = 14
    inner = enumerate_from_generator([(1 << n) - 1, 0b11], n=n)
    outer = enumerate_from_generator([1 << j for j in range(n)], n=n)
    basis, chain = _greedy_chain_basis([inner, outer])
    assert chain == [2, 14] and len(basis) == 14
    # C_1 * C_1 <= F_2^14, so C and D give the same 2^16 reps
    d = construction_d([inner, outer])
    assert len(d) == 1 << 16
    assert np.array_equal(d.array, construction_c([inner, outer]).array)
