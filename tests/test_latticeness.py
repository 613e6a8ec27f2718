import math
import random
import tracemalloc

import numpy as np
import pytest

from codelat import catalog, latticeness
from codelat.constructions import (
    MainCode,
    PeriodicConstellation,
    construction_a,
    construction_c,
    construction_cstar,
    construction_d,
    product_main_code,
    _lane_sub,
    rep_keys,
)
from codelat.gf2 import (
    BinaryCode,
    BitWord,
    LengthMismatchError,
    enumerate_from_generator,
    gf2_reduce_basis,
)
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
    brute_rows_oracle,
    carry_r_terms,
    carry_set,
    generator_twin,
    lift_word_to_point,
    oracle_is_lattice,
    oracle_schur_parity_scan,
    random_linear_code,
    random_lattice_main_code,
    random_linear_main_code,
    random_words,
    schur_closed_chain,
    thm4_all_pairs_oracle,
    thm5_full_scan,
    thm5_per_pair,
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


def test_thm1_matches_all_pairs_oracle():
    rng = np.random.default_rng(97)
    verdicts = {True: 0, False: 0}
    for _ in range(1000):
        n, L = int(rng.integers(2, 8)), int(rng.integers(2, 4))
        # nested chains pass the inclusions and reach the closures
        codes = [random_linear_code(rng, n, int(rng.integers(1, n)))]
        for _ in range(L - 1):
            extra = random_linear_code(rng, n, int(rng.integers(0, 2)))
            cols = codes[-1].words.tolist() + extra.words.tolist()
            codes.append(enumerate_from_generator(cols, n=n))
        report = thm1_check(codes)
        closed, oracle_witness = schur_closed_chain(codes)
        assert (report.verdict == LATTICE) == closed
        verdicts[closed] += 1
        if not closed:
            w = report.witness
            assert w["level"] == oracle_witness[0]
            x, y = BitWord.from_bits(w["x"]), BitWord.from_bits(w["y"])
            assert w["product"] == (x & y).to_tuple()
            assert x in codes[w["level"] - 1] and y in codes[w["level"] - 1]
            assert (x & y) not in codes[w["level"]]
    assert min(verdicts.values()) >= 100


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


@pytest.mark.parametrize("n, L", [(24, 3), (33, 2)])
def test_reconstruct_sum_past_64_bits(n, L):
    # criterion 5 stops at 48 bits; the Leech shape is 72
    rng = random.Random(n * L)
    for _ in range(2000):
        c, d = rng.getrandbits(n * L), rng.getrandbits(n * L)
        x = lift_word_to_point(c, n, L)
        y = lift_word_to_point(d, n, L)
        assert reconstruct_sum(c, d, n, L) == tuple(a + b for a, b in zip(x, y))
        assert reconstruct_sum(BitWord(c, n * L), BitWord(d, n * L), n, L) == reconstruct_sum(c, d, n, L)


@pytest.mark.parametrize("function", [carry_terms, reconstruct_sum])
def test_carry_functions_refuse_a_word_of_the_wrong_length(function):
    good, bad = BitWord(0b101101, 6), BitWord(0b10110, 5)
    assert function(good, good, 3, 2) == function(0b101101, 0b101101, 3, 2)
    for c, d in ((bad, good), (good, bad), (bad, 0)):
        with pytest.raises(LengthMismatchError, match="word length 5 != n\\*L = 6"):
            function(c, d, 3, 2)
    for c, d in ((1 << 6, 0), (0, -1)):
        with pytest.raises(LengthMismatchError, match="is not an n\\*L = 6 bit word"):
            function(c, d, 3, 2)


def test_deciders_do_not_time_themselves():
    # elapsed_ms is the caller's to set, so a rerun returns an equal report
    ex9 = catalog.worked_example("ex9")
    calls = [
        (thm1_check, catalog.dn_plus(12)[0]),
        (thm4_check, ex9),
        (thm5_check, ex9),
        (brute_closure_oracle, construction_cstar(ex9)),
        (thm4_check_leech, catalog.leech_main_code()),
    ]
    for decider, subject in calls:
        first = decider(subject)
        assert first.elapsed_ms is None and first.as_json()["elapsed_ms"] is None
        assert decider(subject) == first


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
    assert all(main.contains(w) for w in S)


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
        if not main.linear:
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
    level_two = random_linear_code(rng, 24, 12)
    ones = (1 << 24) - 1
    rows = (
        [ones | (1 << 48)]
        + [g << 24 for g in level_two.basis()]
        + [0b11 << (48 + j) for j in range(23)]
    )
    variant = MainCode.from_generators(rows, n=24, L=3)
    report = thm5_check(variant)
    assert report.verdict == NOT_LATTICE
    c, d, t = (
        BitWord.from_bits(report.witness[key]).bits for key in ("c", "c_tilde", "carry_tuple")
    )
    assert variant.contains(c) and variant.contains(d) and not variant.contains(t)
    record = carry_terms(c, d, 24, 3)
    assert t == sum(s.bits << ((i + 1) * 24) for i, s in enumerate(record.s))


def _random_thm5_code(rng: np.random.Generator, t: int) -> MainCode:
    """One of five kinds of linear main code by ``t``: random words form (k = 0
    every 25th), its generator twin, a lattice digit code or it with one more
    generator word, a product code, or a generator form past n*L = 64."""
    kind, L = t % 5, int(rng.integers(1, 5))
    n = int(rng.integers(1, 7))
    k_max = {1: 12, 2: 10, 3: 8, 4: 6}[L]  # keeps the per-pair reference short
    if kind < 2:
        k = 0 if t % 25 < 2 else int(rng.integers(0, min(n * L, k_max) + 1))
        main = random_linear_main_code(rng, n, L, k)
        return generator_twin(rng, main) if kind else main
    if kind == 2:  # a lattice, or one extra generator word away from one
        main = random_lattice_main_code(rng, min(n, 4), L, int(rng.integers(1, 4)))
        if not main.linear or main.inner.rank() >= k_max:
            return random_linear_main_code(rng, n, L, 0)
        extra = [int(rng.integers(0, 1 << (main.n * L)))] if t % 10 == 7 else []
        return MainCode.from_generators(main.generators() + extra, main.n, L)
    if kind == 4:  # past n*L = 64: random rows, or a product as below
        L = int(rng.integers(2, 4))
        n = int(rng.integers(64 // L + 1, 34))
        if t % 10 == 4:
            shifts = rng.integers(0, n * L - 61, size=int(rng.integers(0, 5))).tolist()
            return MainCode.from_generators([int(rng.integers(0, 1 << 62)) << s for s in shifts], n, L)
    return product_main_code([random_linear_code(rng, n, int(rng.integers(0, 3))) for _ in range(L)])


@pytest.fixture(scope="module")
def thm5_cases():
    """1000 random linear main codes with the per-pair reference report."""
    rng = np.random.default_rng(26)
    cases = [_random_thm5_code(rng, t) for t in range(1000)]
    return [(main, thm5_per_pair(main)) for main in cases]


@pytest.mark.parametrize("block", [None, 5])
def test_thm5_matches_per_pair_reference(thm5_cases, monkeypatch, block):
    # verdict, witness and pairs_scanned of the blocked scan against the
    # per-pair loop, in blocks of the default size and of one row or so
    if block is not None:
        monkeypatch.setattr(latticeness, "_BLOCK_KEYS", block)
    seen = set()
    for main, ref in thm5_cases:
        got = thm5_check(main)
        assert (got.verdict, got.witness, got.pairs_scanned, got.detail) == (
            ref.verdict,
            ref.witness,
            ref.pairs_scanned,
            ref.detail,
        )
        wide = main.n * main.L > 64
        seen.add((isinstance(main.inner, BinaryCode), wide, got.verdict))
        seen.add(("k = 0", len(main.generators()) == 0))
        seen.add(("late", got.verdict == NOT_LATTICE and got.pairs_scanned > 10))
    words, rows = True, False
    assert {(form, False, v) for form in (words, rows) for v in (LATTICE, NOT_LATTICE)} <= seen
    assert {(rows, True, LATTICE), (rows, True, NOT_LATTICE), ("k = 0", True), ("late", True)} <= seen


def test_thm5_matches_per_pair_reference_on_leech_and_a_variant():
    rng = np.random.default_rng(71)
    ones = (1 << 24) - 1
    level_two = random_linear_code(rng, 24, 12)
    rows = [ones | (1 << 48)] + [g << 24 for g in level_two.basis()] + [0b11 << (48 + j) for j in range(23)]
    for main in (catalog.leech_main_code(), MainCode.from_generators(rows, n=24, L=3)):
        got, ref = thm5_check(main), thm5_per_pair(main)
        assert (got.verdict, got.witness, got.pairs_scanned, got.detail) == (
            ref.verdict,
            ref.witness,
            ref.pairs_scanned,
            ref.detail,
        )


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


def test_generator_form_deciders_match_word_form():
    # thm4 and thm5 on the generator form of random linear main codes
    # (n*L <= 64, k = 0 included) against the word form and the all-pairs
    # chain oracle; a thm5 witness re-derives on the word form
    rng = np.random.default_rng(163)
    verdicts = {LATTICE: 0, NOT_LATTICE: 0}
    for trial in range(300):
        n, L = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        k = 0 if trial < 5 else None
        main = random_linear_main_code(rng, n, L, k)
        twin = generator_twin(rng, main)
        chain, words = thm4_check(twin), thm4_check(main)
        assert (chain.verdict, chain.detail) == thm4_all_pairs_oracle(main)
        assert (chain.verdict, chain.detail) == (words.verdict, words.detail)
        report, words = thm5_check(twin), thm5_check(main)
        assert (report.verdict, report.detail) == (words.verdict, words.detail)
        if report.verdict == NOT_LATTICE:
            _assert_thm5_witness(main, report)
        verdicts[report.verdict] += 1
    assert min(verdicts.values()) >= 30


def test_words_and_generator_twins_answer_alike():
    # a linear main code from random generator columns, held by its words
    # and by those columns (n*L <= 64, k = 0 included): the same generators,
    # the same sorted levels() and the same whole thm5 report
    rng = np.random.default_rng(199)
    verdicts = {LATTICE: 0, NOT_LATTICE: 0}
    for trial in range(400):
        L = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        k = 0 if trial < 5 else int(rng.integers(0, min(n * L, 10) + 1))
        cols = random_words(rng, k, n * L)
        main = MainCode(enumerate_from_generator(cols, n=n * L), n, L)
        twin = MainCode.from_generators(cols, n, L)
        assert twin.generators() == main.generators()
        assert np.array_equal(twin.levels(), main.levels())
        report = thm5_check(twin)
        assert report.as_json() == thm5_check(main).as_json()
        verdicts[report.verdict] += 1
    assert min(verdicts.values()) >= 40


def test_thm4_lattice_implies_thm5_lattice():
    rng = np.random.default_rng(59)
    hits = 0
    for _ in range(300):
        main = random_linear_main_code(rng, int(rng.integers(1, 3)), int(rng.integers(1, 4)))
        if thm4_check(main).verdict == LATTICE:
            hits += 1
            assert thm5_check(main).verdict == LATTICE
    assert hits > 0


def test_schur_parity_scan_golay():
    assert schur_parity_scan(catalog.golay24()) == (0, 4096 * 4097 // 2)


def test_schur_parity_count_matches_all_pairs_oracle():
    rng = np.random.default_rng(131)
    seen = set()
    codes = [catalog.repetition_code(4), catalog.even_parity_code(5), BinaryCode(3, [0])]
    codes += [random_linear_code(rng, int(rng.integers(1, 13)), int(rng.integers(0, 8)))
              for _ in range(150)]
    for code in codes:
        basis = code.basis()
        gram = [sum(((b & c).bit_count() & 1) << j for j, c in enumerate(basis)) for b in basis]
        r, k = len(gf2_reduce_basis(gram)), len(basis)
        seen.add("r=0" if r == 0 else "0<r<k" if r < k else "r=k")
        if any(b.bit_count() & 1 for b in basis):
            seen.add("odd basis word")
        assert schur_parity_scan(code) == oracle_schur_parity_scan(code)
    assert seen == {"r=0", "0<r<k", "r=k", "odd basis word"}


def test_schur_parity_scan_requires_verified_linear_code():
    with pytest.raises(ValueError, match="verified-linear"):
        schur_parity_scan(BinaryCode(3, [0, 1, 2]))


def test_thm5_on_product_code_reduces_only_basis_sized_lists(monkeypatch):
    from codelat import gf2

    full7 = enumerate_from_generator([1 << i for i in range(7)], n=7)
    main = product_main_code([catalog.even_parity_code(7), full7])
    assert len(main) == 1 << 13
    sizes = []
    reduce_basis = gf2.gf2_reduce_basis

    def recorder(vectors):
        vectors = list(vectors)
        sizes.append(len(vectors))
        return reduce_basis(vectors)

    monkeypatch.setattr(gf2, "gf2_reduce_basis", recorder)
    assert thm5_check(main).verdict == LATTICE
    assert max(sizes, default=0) <= 13


def test_construction_a_of_linear_code_is_lattice():
    code = enumerate_from_generator([0b011, 0b101], n=3)
    assert brute_closure_oracle(construction_a(code)).verdict == LATTICE


def test_brute_oracle_at_and_beyond_key_width():
    # n*L = 64 uses the packed keys, n*L = 66 the has_rep row loop
    at = construction_a(BinaryCode(64, [0, (1 << 64) - 1]))
    beyond = PeriodicConstellation(n=33, L=2, q=4, reps=((0,) * 33, (1,) * 33))
    assert brute_closure_oracle(at).verdict == LATTICE
    report = brute_closure_oracle(beyond)
    assert report.verdict == NOT_LATTICE
    assert report.witness["difference"] == [3] * 33


def _symmetric_set(
    rng: np.random.Generator, n: int, L: int, size: int, gens: int = 0
) -> PeriodicConstellation:
    """G + ({0} u R u -R): R holds ``size`` random points with x_0 != 0.

    G is a random lattice with ``gens`` generators inside x_0 = 0 (G = {0}
    for none, or for n = 1).  G's reps come first in canonical order and
    every row of G passes the scan, so the first failure lies past them.
    """
    q = 1 << L
    group = np.zeros((1, n), dtype=np.int64)
    if gens and n > 1:
        sub = construction_cstar(random_lattice_main_code(rng, n - 1, L, gens)).array
        group = np.hstack([np.zeros((len(sub), 1), dtype=np.int64), sub])
    r = rng.integers(0, q, size=(size, n))
    r[:, 0] = rng.integers(1, q, size=size)
    shifts = np.vstack([np.zeros((1, n), dtype=np.int64), r, (-r) % q])
    pts = np.unique(((group[:, None, :] + shifts[None, :, :]) % q).reshape(-1, n), axis=0)
    return PeriodicConstellation(n=n, L=L, q=q, reps=tuple(map(tuple, pts.tolist())))


@pytest.fixture(scope="module")
def brute_cases():
    """~200 small lifts and sets, each with the row-loop reference report."""
    rng = np.random.default_rng(59)
    sets = []
    for t in range(200):
        n, L = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        kind = t % 4
        if kind == 0:
            sets.append(construction_cstar(random_linear_main_code(rng, n, L)))
        elif kind == 1:
            gens = int(rng.integers(1, 3))
            sets.append(construction_cstar(random_lattice_main_code(rng, n, L, gens)))
        elif kind == 2:
            levels = [random_linear_code(rng, n, int(rng.integers(0, n + 1))) for _ in range(L)]
            sets.append(construction_c(levels))
        else:
            size, gens = int(rng.integers(1, 4)), int(rng.integers(0, 3))
            sets.append(_symmetric_set(rng, n, L, size, gens))
    return [(P, brute_rows_oracle(P)) for P in sets]


@pytest.mark.parametrize("table_cap", [latticeness._TABLE_CAP, 0])
@pytest.mark.parametrize("rows", [1, 3, None])
def test_brute_oracle_matches_row_loop(brute_cases, monkeypatch, rows, table_cap):
    # blocks of 1 row, of 3 rows (ragged) and of the default size, looked up
    # in the bool table and, with the cap at 0, by searchsorted
    monkeypatch.setattr(latticeness, "_TABLE_CAP", table_cap)
    verdicts = set()
    late = 0
    for P, ref in brute_cases:
        if rows is not None:
            monkeypatch.setattr(latticeness, "_BLOCK_KEYS", rows * len(P))
        got = brute_closure_oracle(P)
        assert (got.verdict, got.witness, got.pairs_scanned) == (
            ref.verdict,
            ref.witness,
            ref.pairs_scanned,
        )
        verdicts.add(got.verdict)
        late += got.verdict == NOT_LATTICE and got.pairs_scanned > 3 * len(P)
    assert verdicts == {LATTICE, NOT_LATTICE}
    assert late > 0  # first failures past the first blocks


@pytest.mark.parametrize(
    "L, n", [(1, 64), (2, 32), (4, 16), (8, 8), (3, 21), (5, 12), (7, 9), (3, 1)]
)
def test_lane_sub_matches_mod_difference(L, n):
    # n*L = 64 puts the top lane's high bit at bit 63; L = 1 is XOR
    rng = np.random.default_rng(100 * L + n)
    q = 1 << L
    a, b = rng.integers(0, q, size=(2, 300, n))
    a[0], b[0] = 0, q - 1  # every lane borrows
    a[1], b[1] = q - 1, 0
    a[2], b[2] = q - 1, q - 1
    high = np.uint64(sum(1 << (j * L + L - 1) for j in range(n)))
    ka, kb = rep_keys(a.T, q), rep_keys(b.T, q)
    got = _lane_sub(ka, kb, high)
    assert np.array_equal(got, rep_keys(np.mod(a - b, q).T, q))
    if L == 1:
        assert np.array_equal(got, ka ^ kb)


def test_brute_oracle_at_key_width_matches_row_loop():
    # n*L = 64 with L = 1, 2, 4 and 8: q^n = 2^64, so the searchsorted lookup
    rng = np.random.default_rng(64)
    words = random_words(rng, 3, 64)
    cases = [
        construction_a(BinaryCode(64, [0, *words])),
        construction_a(enumerate_from_generator(words, n=64)),
        _symmetric_set(rng, 32, 2, 3),
        _symmetric_set(rng, 16, 4, 3),
        _symmetric_set(rng, 8, 8, 4),
        PeriodicConstellation(n=8, L=8, q=256, reps=((0,) * 8, (128,) * 8)),
    ]
    verdicts = set()
    for P in cases:
        got, ref = brute_closure_oracle(P), brute_rows_oracle(P)
        assert (got.verdict, got.witness, got.pairs_scanned) == (
            ref.verdict,
            ref.witness,
            ref.pairs_scanned,
        )
        verdicts.add(got.verdict)
    assert verdicts == {LATTICE, NOT_LATTICE}


def test_brute_oracle_past_key_width_matches_row_loop():
    # n*L > 64: each row's differences looked up among byte-string keys,
    # against has_rep per difference, on lattices and non-lattices
    rng = np.random.default_rng(66)
    cases = []
    for n, L in ((33, 2), (22, 3), (17, 4)):
        chain = [random_linear_code(rng, n, k) for k in (1, 3)]
        chain[1] = enumerate_from_generator(chain[0].basis() + chain[1].basis(), n=n)
        cases.append(construction_d(chain[:1] * (L - 1) + chain[1:]))
        cases.append(construction_cstar(MainCode.from_generators(random_words(rng, 3, 64), n, L)))
        cases.append(construction_c([random_linear_code(rng, n, 2) for _ in range(L)]))
        cases.append(_symmetric_set(rng, n, L, 3, 1))
    verdicts = set()
    for P in cases:
        assert P.n * P.L > 64
        got, ref = brute_closure_oracle(P), brute_rows_oracle(P)
        assert (got.verdict, got.witness, got.pairs_scanned) == (
            ref.verdict,
            ref.witness,
            ref.pairs_scanned,
        )
        verdicts.add(got.verdict)
    assert verdicts == {LATTICE, NOT_LATTICE}


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_brute_oracle_table_at_and_past_cap(monkeypatch):
    # q^n at the cap builds the q^n-byte table for the first-gap scan of a
    # non-lattice; one more lane looks up by searchsorted.  The span test
    # decides a lattice with no table at all
    rng = np.random.default_rng(24)
    L, n = 3, 6
    monkeypatch.setattr(latticeness, "_TABLE_CAP", 8**n)
    for lanes, tabled in ((n, True), (n + 1, False)):
        zero = PeriodicConstellation(n=lanes, L=L, q=8, reps=((0,) * lanes,))
        for P, table in ((_symmetric_set(rng, lanes, L, 5), tabled), (zero, False)):
            ref = brute_rows_oracle(P)
            got, peak = _peak_bytes(lambda: brute_closure_oracle(P))
            assert (got.verdict, got.witness, got.pairs_scanned) == (
                ref.verdict,
                ref.witness,
                ref.pairs_scanned,
            )
            assert got.verdict == (LATTICE if P is zero else NOT_LATTICE)
            assert (peak >= 8**n) == table


def test_brute_oracle_memory_is_bounded():
    # 4096 reps, n=6, L=3, a full scan: a 2^18-byte table and ~128 KiB blocks
    full = enumerate_from_generator([1 << i for i in range(6)], n=6)
    zero = BinaryCode(6, [0])
    P = construction_cstar(product_main_code([zero, full, full]))
    assert len(P) == 4096
    report, peak = _peak_bytes(lambda: brute_closure_oracle(P))
    assert report.verdict == LATTICE and report.pairs_scanned == 4096**2
    assert peak < 8 << 20


def _random_rep_set(rng: np.random.Generator, kind: int, n: int, L: int) -> PeriodicConstellation:
    """One random rep set of ``kind``: C* of a random linear (0) or lattice (1)
    main code, C* of a nonlinear main code (2), the D lift of a random
    nested chain (3), a ``_symmetric_set`` (4) or a set without zero (5)."""
    q, nl = 1 << L, n * L
    if kind == 0:
        return construction_cstar(random_linear_main_code(rng, n, L, int(rng.integers(0, 5))))
    if kind == 1:
        return construction_cstar(random_lattice_main_code(rng, n, L, int(rng.integers(1, 3))))
    if kind == 2:
        words = random_words(rng, int(rng.integers(1, 8)), nl)
        return construction_cstar(MainCode(BinaryCode(nl, [0, *words]), n, L))
    if kind == 3:
        codes = [random_linear_code(rng, n, int(rng.integers(0, 3)))]
        for _ in range(L - 1):
            extra = random_words(rng, int(rng.integers(0, 2)), n)
            codes.append(enumerate_from_generator(codes[-1].words.tolist() + extra, n=n))
        return construction_d(codes)
    if kind == 4:
        return _symmetric_set(rng, n, L, int(rng.integers(1, 3)), int(rng.integers(0, 2)))
    pts = {tuple(p) for p in rng.integers(0, q, size=(int(rng.integers(1, 6)), n)).tolist()}
    pts.discard((0,) * n)
    return PeriodicConstellation(n=n, L=L, q=q, reps=sorted(pts or {(1,) * n}))


def test_span_test_decides_every_lattice(monkeypatch):
    # verdicts against the plain-Python group test; the first-gap scan runs
    # on non-lattices only, so the span test alone decided every lattice
    scans = []
    first_gap = latticeness._first_gap_packed
    monkeypatch.setattr(
        latticeness, "_first_gap_packed", lambda *args: scans.append(args) or first_gap(*args)
    )
    rng = np.random.default_rng(25)
    seen = set()
    for t in range(600):
        kind, n, L = t % 6, int(rng.integers(1, 5)), int(rng.integers(1, 4))
        P = _random_rep_set(rng, kind, n, L)
        if len(P) > 64:  # keeps the Python oracle's m^2 loop short
            continue
        scans.clear()
        lattice = oracle_is_lattice(P)
        assert (brute_closure_oracle(P).verdict == LATTICE) == lattice
        assert not (lattice and scans)
        seen.add((kind, L == 1, lattice))
    # both verdicts on C* of linear main codes past L = 1, and on nonlinear
    # main codes and symmetric sets at L = 1 (XOR lanes) and past it; these
    # small D lifts and every L = 1 linear lift are lattices
    both = {(kind, xor, v) for kind in (2, 4) for xor in (True, False) for v in (True, False)}
    assert both | {(0, False, False), (0, False, True), (0, True, True)} <= seen
    assert {(k, xor, True) for k in (1, 3) for xor in (True, False)} <= seen
    assert {(5, True, False), (5, False, False)} <= seen
    assert not any(v for kind, _, v in seen if kind == 5)


@pytest.fixture(scope="module")
def dn18_plus():
    # D_18^+ from [repetition_code(18), even_parity_code(18)]: 2^18 reps, 2^36 pairs
    codes = [catalog.repetition_code(18), catalog.even_parity_code(18)]
    return construction_c(codes), construction_d(codes)


def test_brute_oracle_decides_lattices_past_the_pair_budget(dn18_plus):
    for P in dn18_plus:
        assert len(P) == 1 << 18
        report, peak = _peak_bytes(lambda: brute_closure_oracle(P))
        assert report.verdict == LATTICE and report.pairs_scanned == 2**36
        assert peak < 64 * len(P)


def _assert_brute_witness(P, report):
    a, b, diff = (report.witness[key] for key in ("a", "b", "difference"))
    assert P.has_rep(tuple(a)) and P.has_rep(tuple(b))
    assert diff == [(x - y) % P.q for x, y in zip(a, b)] and not P.has_rep(tuple(diff))


def test_brute_oracle_past_the_pair_budget_without_a_lattice(dn18_plus):
    # past the budget a non-lattice reports the pair the span test met,
    # which re-derives; with zero moved away no test is needed, and a set
    # too wide to pack still refuses the m^2 scan
    P = dn18_plus[1]
    for row, moved_to in ((-1, 1), (0, 1)):
        reps = P.array.copy()
        reps[row, 0] = moved_to
        assert not P.has_rep(tuple(reps[row].tolist()))
        moved = PeriodicConstellation(n=P.n, L=P.L, q=P.q, reps=reps)
        report = brute_closure_oracle(moved)
        assert report.verdict == NOT_LATTICE
        if row:
            _assert_brute_witness(moved, report)
            assert 0 < report.pairs_scanned < 64 * len(moved)
        else:
            assert report.witness == {"missing_zero": True} and report.pairs_scanned == 0
    rng = np.random.default_rng(26)
    seen = 0
    for t in range(300):
        Q = _random_rep_set(rng, t % 5, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        within = brute_closure_oracle(Q)
        if within.verdict == LATTICE or "missing_zero" in within.witness:
            continue
        seen += 1
        past = brute_closure_oracle(Q, budget=len(Q) ** 2 - 1)
        assert past.verdict == NOT_LATTICE
        _assert_brute_witness(Q, past)
    assert seen >= 100
    wide = PeriodicConstellation(n=33, L=2, q=4, reps=((0,) * 33, (1,) * 33))
    with pytest.raises(BudgetExceededError):
        brute_closure_oracle(wide, budget=3)
