import math

import numpy as np
import pytest

from codelat import catalog
from codelat.constructions import (
    MainCode,
    construction_a,
    construction_c,
    construction_cstar,
    construction_d,
    product_main_code,
)
from codelat.gf2 import BinaryCode, BitWord, enumerate_from_generator, gf2_reduce_basis
from codelat.latticeness import (
    INCONCLUSIVE,
    LATTICE,
    NOT_LATTICE,
    BudgetExceededError,
    brute_closure_oracle,
    carry_terms,
    reconstruct_sum,
    schur_parity_scan,
    thm1_check,
    thm4_check,
    thm4_check_leech,
    thm5_check,
)
from oracles import (
    carry_r_terms,
    carry_set,
    lift_word_to_point,
    oracle_is_lattice,
    random_linear_code,
    random_lattice_main_code,
    random_linear_main_code,
    thm4_all_pairs_oracle,
    thm5_full_scan,
)


def test_brute_oracle_examples():
    nonlattice = construction_c(catalog.worked_example("ex1"))
    report = brute_closure_oracle(nonlattice)
    assert report.verdict == NOT_LATTICE
    a, b = report.witness["a"], report.witness["b"]
    diff = tuple((x - y) % nonlattice.q for x, y in zip(a, b))
    assert not nonlattice.contains(diff)

    lattice = construction_cstar(catalog.worked_example("ex5"))
    assert brute_closure_oracle(lattice).verdict == LATTICE

    from codelat.constructions import PeriodicConstellation

    pure = PeriodicConstellation(n=2, L=2, q=4, reps=((0, 0),))
    assert brute_closure_oracle(pure).verdict == LATTICE


def test_brute_oracle_matches_python_oracle():
    rng = np.random.default_rng(3)
    for _ in range(60):
        main = random_linear_main_code(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        P = construction_cstar(main)
        assert (brute_closure_oracle(P).verdict == LATTICE) == oracle_is_lattice(P)


def test_thm1_examples():
    codes8, expected8 = catalog.dn_plus(8)
    assert expected8 and thm1_check(list(codes8)).verdict == LATTICE
    codes7, expected7 = catalog.dn_plus(7)
    assert not expected7 and thm1_check(list(codes7)).verdict == NOT_LATTICE
    rep = enumerate_from_generator([0b11], n=2)
    assert thm1_check([rep]).verdict == LATTICE


def test_thm1_rejects_unverified_linear():
    nonlinear = BinaryCode(2, [0, 1, 2])
    with pytest.raises(ValueError):
        thm1_check([nonlinear])


def test_thm1_lattice_chains_have_equal_c_and_d_reps():
    # a Schur-closed nested chain lifts to the same reps under C and D
    chains = [list(catalog.dn_plus(n)[0]) for n in range(2, 10)]
    chains.append([enumerate_from_generator([0b11], n=2)])
    lattices = 0
    for codes in chains:
        report = thm1_check(codes)
        assert "detail" not in report.as_json()
        if report.verdict == LATTICE:
            lattices += 1
            assert construction_c(codes).reps == construction_d(codes).reps
    assert lattices == 5


def test_carry_terms_zero_and_single_level():
    record = carry_terms(0, 0, 3, 2)
    assert all(s.bits == 0 for s in record.s) and record.s_star == (0, 0, 0)
    record = carry_terms(0b101, 0b110, 3, 1)
    assert record.s == ()
    assert record.s_star == (0, 0, 1)  # AND of the single level, as integers


def test_carry_terms_reconstructs_integer_sum():
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 9))
        L = int(rng.integers(1, 5))
        nl = n * L
        c = int(rng.integers(0, 1 << nl, dtype=np.uint64))
        d = int(rng.integers(0, 1 << nl, dtype=np.uint64))
        total = reconstruct_sum(c, d, n, L)
        x = lift_word_to_point(c, n, L)
        y = lift_word_to_point(d, n, L)
        assert total == tuple(a + b for a, b in zip(x, y))


def test_carry_terms_symmetric():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n, L = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        nl = n * L
        c = int(rng.integers(0, 1 << nl, dtype=np.uint64))
        d = int(rng.integers(0, 1 << nl, dtype=np.uint64))
        assert carry_terms(c, d, n, L) == carry_terms(d, c, n, L)
    # the first eight words of the worked examples and of random main codes
    mains = [
        catalog.worked_example(ex)
        for ex in ("ex4", "ex5", "ex7", "ex9", "ex10", "ex13", "ex13-swapped")
    ]
    mains += [
        random_linear_main_code(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        for _ in range(50)
    ]
    for main in mains:
        sample = main.inner.words[:8].tolist()
        for c in sample:
            for d in sample:
                assert carry_terms(c, d, main.n, main.L) == carry_terms(d, c, main.n, main.L)


def test_carry_r_terms_decompose_the_carry():
    # s_i must equal (c_i AND d_i) XOR the XOR of all r terms at level i
    rng = np.random.default_rng(29)
    for _ in range(200):
        n, L = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        nl = n * L
        c = int(rng.integers(0, 1 << nl, dtype=np.uint64))
        d = int(rng.integers(0, 1 << nl, dtype=np.uint64))
        record = carry_terms(c, d, n, L)
        mask = (1 << n) - 1
        for i in range(2, L):
            ci = (c >> ((i - 1) * n)) & mask
            di = (d >> ((i - 1) * n)) & mask
            acc = ci & di
            for r in carry_r_terms(c, d, n, L, i):
                acc ^= r.bits
            assert acc == record.s[i - 1].bits


def test_carry_set_ex9_matches_known_tuples():
    S = carry_set(catalog.worked_example("ex9"))
    expected = {
        (0, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 1, 1),
        (0, 0, 0, 0, 1, 0),
        (0, 0, 1, 0, 0, 1),
    }
    assert {w.to_tuple() for w in S} == expected


def test_carry_set_zero_code():
    main = MainCode(BinaryCode(4, [0]), 2, 2)
    S = carry_set(main)
    assert {w.bits for w in S} == {0}


def test_carry_set_of_closed_product_chain_stays_inside():
    codes, _ = catalog.dn_plus(4)
    main = product_main_code(list(codes))
    S = carry_set(main)
    assert all(w in main.inner for w in S)


def test_thm5_examples():
    assert thm5_check(catalog.worked_example("ex9")).verdict == LATTICE
    main = catalog.worked_example("ex4")
    report = thm5_check(main)
    assert report.verdict == NOT_LATTICE
    _assert_thm5_witness(main, report)


def test_thm5_requires_linear():
    nonlinear = MainCode(BinaryCode(4, [0, 1, 3]), 2, 2)
    with pytest.raises(ValueError):
        thm5_check(nonlinear)


def _low_weight_pair_bound(k: int, L: int) -> int:
    return sum(math.comb(2 * k, w) for w in range(L + 1))


def _assert_thm5_witness(main, report):
    c = BitWord.from_bits(report.witness["c"])
    d = BitWord.from_bits(report.witness["c_tilde"])
    assert c in main.inner and d in main.inner
    record = carry_terms(c, d, main.n, main.L)
    packed = sum(s.bits << ((i + 1) * main.n) for i, s in enumerate(record.s))
    assert BitWord.from_bits(report.witness["carry_tuple"]).bits == packed
    assert packed not in main.inner


def test_thm5_agrees_with_brute_oracle():
    # the low-weight scan against the full pair scan and the brute oracle
    rng = np.random.default_rng(41)
    counts = {LATTICE: 0, NOT_LATTICE: 0}
    for _ in range(1000):
        n, L = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        k = int(rng.integers(0, min(n * L, 9) + 1))
        main = random_linear_main_code(rng, n, L, k)
        report = thm5_check(main)
        assert report.verdict == thm5_full_scan(main).verdict
        assert report.verdict == brute_closure_oracle(construction_cstar(main)).verdict
        assert report.pairs_scanned <= _low_weight_pair_bound(main.inner.rank(), L)
        if report.verdict == NOT_LATTICE:
            _assert_thm5_witness(main, report)
        counts[report.verdict] += 1
    assert min(counts.values()) >= 200


def test_thm5_low_weight_scan_on_lattice_digit_codes_and_perturbations():
    # random linear codes of high dimension are rarely lattices; digit codes
    # of random lattices are, and one extra generator word mostly breaks them
    rng = np.random.default_rng(67)
    counts = {LATTICE: 0, NOT_LATTICE: 0}
    for trial in range(200):
        n, L = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        main = random_lattice_main_code(rng, n, L, int(rng.integers(1, n + 1)))
        if main.linear is not True:
            continue
        if trial % 2:
            extra = int(rng.integers(0, 1 << (n * L)))
            code = enumerate_from_generator(main.generators() + [extra], n=n * L)
            main = MainCode(code, n, L)
        report = thm5_check(main)
        assert report.verdict == thm5_full_scan(main).verdict
        assert trial % 2 or report.verdict == LATTICE
        if report.verdict == NOT_LATTICE:
            _assert_thm5_witness(main, report)
        counts[report.verdict] += 1
    assert min(counts.values()) >= 30


def test_thm5_budget_bounds_the_low_weight_pairs():
    main = product_main_code([enumerate_from_generator([1, 2, 4], n=3)] * 3)
    bound = _low_weight_pair_bound(9, 3)
    assert thm5_check(main, budget=bound).verdict == LATTICE
    with pytest.raises(BudgetExceededError):
        thm5_check(main, budget=bound - 1)


def test_thm5_leech_main_code():
    leech = catalog.leech_main_code()
    gens = leech.generators()
    assert len(gens) == 36 and len(gf2_reduce_basis(gens)) == 36
    assert all(leech.contains(g) for g in gens)
    report = thm5_check(leech)
    assert report.verdict == LATTICE and report.detail == {"dimension": 36}
    assert report.pairs_scanned <= _low_weight_pair_bound(36, 3)


def test_thm5_rejects_leech_variant_with_random_level_two():
    rng = np.random.default_rng(71)
    variant = catalog.LeechMainCode(golay=random_linear_code(rng, 24, 12))
    report = thm5_check(variant)
    assert report.verdict == NOT_LATTICE
    c, d, t = (
        BitWord.from_bits(report.witness[key]).bits for key in ("c", "c_tilde", "carry_tuple")
    )
    assert variant.contains(c) and variant.contains(d) and not variant.contains(t)
    record = carry_terms(c, d, 24, 3)
    assert t == sum(s.bits << ((i + 1) * 24) for i, s in enumerate(record.s))


def test_thm5_matches_thm1_on_product_codes():
    rng = np.random.default_rng(43)
    for _ in range(80):
        n = int(rng.integers(1, 4))
        L = int(rng.integers(1, 4))
        codes = [random_linear_code(rng, n, int(rng.integers(0, n + 1))) for _ in range(L)]
        main = product_main_code(codes)
        verdict = thm1_check(codes).verdict
        assert thm5_check(main).verdict == verdict
        if verdict == LATTICE:
            assert construction_c(codes).reps == construction_d(codes).reps


def test_lattice_verdict_implies_negation_closure():
    rng = np.random.default_rng(47)
    found = 0
    while found < 10:
        main = random_linear_main_code(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        P = construction_cstar(main)
        if thm5_check(main).verdict != LATTICE:
            continue
        found += 1
        for rep in P.reps:
            assert P.contains(tuple((-c) % P.q for c in rep))


def test_thm4_leech_chain():
    report = thm4_check_leech(catalog.leech_main_code())
    assert report.verdict == LATTICE
    inclusions = [c["inclusion"] for c in report.detail["chain"]]
    assert inclusions == [
        "C_1 <= S_2(0)",
        "S_2(0) <= C_2",
        "C_2 <= S_3(0)",
        "S_3(0) <= C_3",
        "C_3 <= F_2^24",
    ]
    assert all(c["holds"] for c in report.detail["chain"])
    scan = report.detail["closures"][-1]
    assert scan["violations"] == 0 and scan["pairs"] == 4096 * 4097 // 2


def test_thm4_inconclusive_on_ex9():
    report = thm4_check(catalog.worked_example("ex9"))
    assert report.verdict == INCONCLUSIVE
    # the chain already fails at C_1 <= S_2(0), matching the known witness
    first = report.detail["chain"][0]
    assert first["inclusion"] == "C_1 <= S_2(0)" and not first["holds"]
    # ... even though the exact test certifies a lattice
    assert thm5_check(catalog.worked_example("ex9")).verdict == LATTICE


def test_thm4_inconclusive_on_non_nested_product():
    a = BinaryCode.from_words(["00", "10"])
    b = BinaryCode.from_words(["00", "01"])
    main = product_main_code([a, b])
    assert thm4_check(main).verdict == INCONCLUSIVE


def test_thm4_matches_all_pairs_closure_oracle():
    rng = np.random.default_rng(73)
    closures = {True: 0, False: 0}
    for trial in range(300):
        n, L = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        if trial % 2:
            main = random_linear_main_code(rng, n, L)
        else:
            # nested product chains pass the inclusions and reach the closures
            n = int(rng.integers(3, 6))
            codes = [random_linear_code(rng, n, int(rng.integers(2, n)))]
            for _ in range(L - 1):
                extra = random_linear_code(rng, n, int(rng.integers(0, 2)))
                cols = codes[-1].words.tolist() + extra.words.tolist()
                codes.append(enumerate_from_generator(cols, n=n))
            main = product_main_code(codes)
        report = thm4_check(main)
        verdict, detail = thm4_all_pairs_oracle(main)
        assert report.verdict == verdict and report.detail == detail
        for c in detail["closures"]:
            closures[c["holds"]] += 1
    assert min(closures.values()) >= 20


def test_thm4_lattice_implies_thm5_lattice():
    rng = np.random.default_rng(59)
    hits = 0
    for _ in range(300):
        main = random_linear_main_code(rng, int(rng.integers(1, 3)), int(rng.integers(1, 4)))
        if thm4_check(main).verdict == LATTICE:
            hits += 1
            assert thm5_check(main).verdict == LATTICE
    assert hits > 0


def test_schur_parity_scan_threads_match():
    golay = catalog.golay24()
    single = schur_parity_scan(golay, threads=1)
    multi = schur_parity_scan(golay, threads=4)
    assert single == multi == (0, 4096 * 4097 // 2)


def test_construction_a_of_linear_code_is_lattice():
    code = enumerate_from_generator([0b011, 0b101], n=3)
    assert brute_closure_oracle(construction_a(code)).verdict == LATTICE
