import numpy as np
import pytest

from codelat import catalog
from codelat.constructions import (
    MainCode,
    PeriodicConstellation,
    associated_construction_c,
    construction_a,
    construction_c,
    construction_cstar,
)
from codelat.geometry import (
    centered_residue,
    distance_spectrum,
    dmin_formula_c,
    dmin_lower_bound_2level,
    dmin_oracle,
    dmin_to_zero,
    dmin_to_zero_structured,
    dmin_upper_bound_antiprojection,
    eds_check,
    equi_min_distance_check,
    isometry_orbit_check,
    mcounts,
)
from codelat.gf2 import BinaryCode, BitWord
from oracles import (
    oracle_min_distance_squared,
    oracle_spectrum,
    random_linear_code,
    random_linear_main_code,
)


def test_centered_residue_convention():
    assert centered_residue(2, 4) == 2  # tie goes positive
    assert centered_residue(3, 4) == -1
    assert centered_residue(5, 8) == -3


def test_dmin_oracle_examples():
    assert dmin_oracle(construction_cstar(catalog.worked_example("ex5"))) == 4
    assert dmin_oracle(construction_cstar(catalog.worked_example("ex9"))) == 5
    pure = PeriodicConstellation(n=1, L=2, q=4, reps=((0,),))
    assert dmin_oracle(pure) == 16


def test_dmin_oracle_matches_box_enumeration():
    rng = np.random.default_rng(61)
    for _ in range(40):
        main = random_linear_main_code(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        P = construction_cstar(main)
        assert dmin_oracle(P) == oracle_min_distance_squared(P)


def test_dmin_formula_examples():
    codes, _ = catalog.dn_plus(4)
    assert dmin_formula_c(list(codes)) == 4
    assert dmin_formula_c(catalog.worked_example("ex2")) == 2
    with pytest.raises(ValueError):
        dmin_formula_c([BinaryCode(2, [0, 1, 2])])


def test_dmin_formula_matches_oracle():
    rng = np.random.default_rng(67)
    for _ in range(60):
        n = int(rng.integers(1, 5))
        L = int(rng.integers(1, 4))
        codes = [random_linear_code(rng, n, int(rng.integers(0, n + 1))) for _ in range(L)]
        assert dmin_formula_c(codes) == dmin_oracle(construction_c(codes))


def test_mcounts_examples():
    m = mcounts(BitWord.from_bits([1, 0, 0, 0, 0, 0]), n=3, L=2)
    assert m.m == (1, 0) and m.d2_to_zero() == 1
    # all-ones tuple at w coordinates counts into m_1
    m = mcounts(BitWord.from_bits([1, 1, 0] + [1, 1, 0]), n=3, L=2)
    assert m.m[0] == 2
    # value 5 at a single coordinate (n=1, L=3) has centered magnitude 3
    m = mcounts(BitWord.from_bits([1, 0, 1]), n=1, L=3)
    assert m.m == (0, 0, 1, 0) and m.d2_to_zero() == 9


def _centered_norm_of_word(word: int, n: int, L: int) -> int:
    q = 1 << L
    mask = (1 << n) - 1
    levels = [(word >> (i * n)) & mask for i in range(L)]
    norm = 0
    for j in range(n):
        digit = sum(((levels[i] >> j) & 1) << i for i in range(L))
        norm += min(digit * digit, (q - digit) * (q - digit))
    return norm


def test_mcounts_reconstruct_centered_norm_exhaustive():
    # every word of a few full shapes with n*L <= 12
    for n, L in ((4, 3), (2, 4), (6, 2), (1, 3)):
        for word in range(1 << (n * L)):
            m = mcounts(word, n, L)
            assert m.d2_to_zero() == _centered_norm_of_word(word, n, L)
            assert m.total() <= n


def test_mcounts_weight_over_levels_bound():
    rng = np.random.default_rng(73)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        L = int(rng.integers(1, 4))
        word = int(rng.integers(0, 1 << (n * L), dtype=np.uint64))
        m = mcounts(word, n, L)
        assert L * m.d2_to_zero() >= word.bit_count()


def test_dmin_to_zero_examples():
    assert dmin_to_zero(construction_cstar(catalog.worked_example("ex10"))) == 4
    zero_main = MainCode(BinaryCode(2, [0]), 1, 2)
    assert dmin_to_zero(zero_main) == 16


def _top_digit_norms(P: PeriodicConstellation) -> list[int]:
    """Top-digit norm ||2^(L-1) c_L - sum 2^(i-1) c_i||^2 of each nonzero rep."""
    half = P.q // 2
    return [
        sum((c - P.q if c >= half else -c) ** 2 for c in rep)
        for rep in P.reps
        if any(rep)
    ]


def test_dmin_to_zero_equals_top_digit_form():
    lifts = [
        construction_cstar(catalog.worked_example(ex))
        for ex in ("ex4", "ex5", "ex9", "ex10", "ex13", "ex13-swapped")
    ]
    lifts += [construction_c(catalog.worked_example(ex)) for ex in ("ex1", "ex2")]
    rng = np.random.default_rng(139)
    lifts += [
        construction_cstar(random_linear_main_code(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4))))
        for _ in range(60)
    ]
    for P in lifts:
        assert dmin_to_zero(P) == min(_top_digit_norms(P) + [P.q * P.q])


def test_dmin_to_zero_leech_structured():
    leech = catalog.leech_main_code()
    assert dmin_to_zero_structured(leech.prefixes(), n=24, L=3) == 32


def test_structured_solver_small_cases():
    # single all-zero prefix, even parity: the zero point is excluded and
    # the best coset point flips the two cheapest coordinates
    assert dmin_to_zero_structured([((0, 0), 0)], n=24, L=3) == 32
    # odd parity forces one flipped coordinate of cost (2^(L-1))^2 = 16
    assert dmin_to_zero_structured([((0, 0), 1)], n=24, L=3) == 16
    # n=2, L=2, c_1 = (1,1), even parity: both coordinates keep cost 1
    assert dmin_to_zero_structured([((0b11,), 0)], n=2, L=2) == 2
    with pytest.raises(ValueError):
        dmin_to_zero_structured([], n=2, L=2)


def test_structured_solver_matches_enumeration():
    # enumerable instances with a parity-coset last level
    rng = np.random.default_rng(79)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        L = int(rng.integers(2, 4))
        k = int(rng.integers(0, n + 1))
        prefix_code = random_linear_code(rng, n * (L - 1), k)
        prefixes = []
        words = []
        parity_bit = int(rng.integers(0, 2))
        even = catalog.even_parity_code(n)
        for pw in prefix_code.words.tolist():
            mask = (1 << n) - 1
            levels = tuple((pw >> (i * n)) & mask for i in range(L - 1))
            parity = (sum(((pw >> j) & 1) for j in range(n)) + parity_bit) % 2
            prefixes.append((levels, parity))
            for last in even.words.tolist():
                lifted = last if parity == 0 else last ^ 1  # flip one bit for odd
                words.append(pw | (lifted << ((L - 1) * n)))
        main = MainCode(BinaryCode(n * L, words, linear=None), n, L)
        P = construction_cstar(main)
        expected = dmin_to_zero(P)
        assert expected == min(_top_digit_norms(P) + [P.q * P.q])
        got = dmin_to_zero_structured(prefixes, n=n, L=L)
        assert got == expected


def test_dmin_lower_bound_2level():
    assert dmin_lower_bound_2level(1, 4) == 13
    assert dmin_lower_bound_2level(1, 5) == 16
    with pytest.raises(ValueError):
        dmin_lower_bound_2level(4, 4)


def test_dmin_upper_bound_examples():
    assert catalog.leech_main_code().dmin_upper_bound() == 32
    assert dmin_upper_bound_antiprojection(catalog.worked_example("ex9")) == 16
    assert dmin_upper_bound_antiprojection(catalog.worked_example("ex10")) == 64


def test_distance_chain_on_2level_instances():
    # oracle <= to-zero <= antiprojection bound on joint lifts
    rng = np.random.default_rng(83)
    for _ in range(40):
        main = random_linear_main_code(rng, int(rng.integers(1, 4)), 2)
        P = construction_cstar(main)
        lo = dmin_oracle(P)
        mid = dmin_to_zero(P)
        hi = dmin_upper_bound_antiprojection(main)
        assert lo <= mid <= hi
        assert mid == min(_top_digit_norms(P) + [P.q * P.q])


def test_cstar_dmin_at_least_associated():
    rng = np.random.default_rng(89)
    for _ in range(40):
        main = random_linear_main_code(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        d_star = dmin_oracle(construction_cstar(main))
        d_assoc = dmin_oracle(associated_construction_c(main))
        assert d_star >= d_assoc


def test_spectrum_examples():
    P = construction_c(catalog.worked_example("ex2"))
    s11 = distance_spectrum(P, (1, 1), 2)
    s33 = distance_spectrum(P, (3, 3), 2)
    assert s11.count(2) == 2 and s33.count(2) == 1
    pure = PeriodicConstellation(n=3, L=2, q=4, reps=((0, 0, 0),))
    s = distance_spectrum(pure, (0, 0, 0), 4)
    assert s.count(16) == 6  # 2n axis neighbors at distance q


def test_spectrum_matches_box_oracle():
    rng = np.random.default_rng(97)
    for _ in range(20):
        main = random_linear_main_code(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
        P = construction_cstar(main)
        rep = P.reps[int(rng.integers(0, len(P.reps)))]
        radius = float(rng.integers(2, 2 * P.q + 1))
        spec = distance_spectrum(P, rep, radius)
        assert spec.entries == oracle_spectrum(P, rep, radius)


def test_spectrum_rejects_foreign_rep():
    P = construction_c(catalog.worked_example("ex2"))
    with pytest.raises(ValueError):
        distance_spectrum(P, (1, 2), 2)


def test_eds_example_witness():
    P = construction_c(catalog.worked_example("ex2"))
    ok, witness = eds_check(P, 2)
    assert not ok
    assert witness["rep_max"] == [1, 1] and witness["count_max"] == 2
    assert witness["rep_min"] == [3, 3] and witness["count_min"] == 1
    assert witness["d2"] == 2


def test_eds_lattice_always_true():
    P = construction_cstar(catalog.worked_example("ex5"))
    ok, _ = eds_check(P)
    assert ok


def test_eds_2level_cstar_random():
    rng = np.random.default_rng(101)
    for _ in range(50):
        main = random_linear_main_code(rng, int(rng.integers(1, 5)), 2)
        ok, witness = eds_check(construction_cstar(main), 2 * main.q)
        assert ok, witness


def test_eds_two_nonzero_code_families():
    rng = np.random.default_rng(103)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        L = int(rng.integers(2, 4))
        i = int(rng.integers(1, L))  # 1-based level of the first nonzero code
        codes = [BinaryCode(n, [0]) for _ in range(L)]
        codes[i - 1] = random_linear_code(rng, n, int(rng.integers(0, n + 1)))
        codes[L - 1] = random_linear_code(rng, n, int(rng.integers(0, n + 1)))
        P = construction_c(codes)
        ok, witness = eds_check(P, 2 * P.q)
        assert ok, witness


def test_equi_min_distance_examples():
    ok, witness = equi_min_distance_check(
        construction_cstar(catalog.worked_example("ex10"))
    )
    assert not ok and witness == (0,)
    codes, _ = catalog.dn_plus(5)
    ok, _ = equi_min_distance_check(construction_c(list(codes)))
    assert ok  # independent-level lifts of linear codes reach d_min everywhere
    ok, _ = equi_min_distance_check(construction_cstar(catalog.worked_example("ex5")))
    assert ok


def test_equi_min_distance_random_construction_c():
    rng = np.random.default_rng(107)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        L = int(rng.integers(1, 4))
        codes = [random_linear_code(rng, n, int(rng.integers(0, n + 1))) for _ in range(L)]
        ok, _ = equi_min_distance_check(construction_c(codes))
        assert ok


def test_isometry_example_2level():
    P = construction_cstar(catalog.worked_example("ex4"))
    assert isometry_orbit_check(P, (1, 2), (1, 0))


def test_isometry_family_certifies_construction_a():
    rng = np.random.default_rng(109)
    for _ in range(20):
        code = random_linear_code(rng, int(rng.integers(1, 5)), int(rng.integers(0, 4)))
        P = construction_a(code)
        for rep in P.reps:
            assert isometry_orbit_check(P, rep, rep)


def test_isometry_family_certifies_2level_cstar():
    rng = np.random.default_rng(113)
    for _ in range(20):
        main = random_linear_main_code(rng, int(rng.integers(1, 4)), 2)
        P = construction_cstar(main)
        for rep in P.reps:
            level1 = tuple(c & 1 for c in rep)
            assert isometry_orbit_check(P, rep, level1)


def test_isometry_on_non_eds_constellation():
    # spectra split {(0,0),(3,3)} vs {(1,1),(2,2)}; the full flip swaps the
    # matching classes, so it is a symmetry at (3,3) but nothing carries
    # (1,1) to the origin
    P = construction_c(catalog.worked_example("ex2"))
    patterns = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert [isometry_orbit_check(P, (3, 3), p) for p in patterns] == [
        False,
        False,
        False,
        True,
    ]
    assert not any(isometry_orbit_check(P, (1, 1), p) for p in patterns)


def test_spectrum_radius_default_covers_2q():
    P = construction_cstar(catalog.worked_example("ex5"))
    ok, _ = eds_check(P)  # default radius 2q
    assert ok
    spec = distance_spectrum(P, (0, 0), 2 * P.q)
    assert max(spec.entries) <= (2 * P.q) ** 2
    assert spec.count(P.q * P.q) >= 2 * P.n
