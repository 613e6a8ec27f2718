import tracemalloc

import numpy as np
import pytest

from codelat import catalog, geometry
from codelat.constructions import (
    MainCode,
    PeriodicConstellation,
    associated_construction_c,
    construction_a,
    construction_c,
    construction_cstar,
)
from codelat.geometry import (
    distance_spectrum,
    dmin_formula_c,
    dmin_oracle,
    dmin_to_zero,
    dmin_to_zero_structured,
    dmin_upper_bound_antiprojection,
    eds_check,
    equi_min_distance_check,
    isometry_orbit_check,
)
from codelat.gf2 import BinaryCode, enumerate_from_generator
from oracles import (
    dmin_to_zero_structured_chunked,
    oracle_antiprojection_set,
    oracle_eds,
    oracle_min_distance_squared,
    oracle_nearest_squared,
    oracle_spectrum,
    random_linear_code,
    random_linear_main_code,
    random_words,
)


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
    assert dmin_to_zero_structured_chunked(leech.prefixes(), n=24, L=3, chunk=1000) == 32


def test_structured_solver_matches_chunked_reference():
    # the one array pass against the chunked solver with its row-by-row
    # zero-coset repair, on random prefix sets (L = 1..4; the zero prefix,
    # even or odd, in half of them) cut into chunks of 1 to 5 prefixes
    rng = np.random.default_rng(26)
    zero_sets = 0
    for t in range(3000):
        n, L = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        size = int(rng.integers(1, 9))
        prefixes = [
            (tuple(random_words(rng, L - 1, n)), int(rng.integers(0, 2))) for _ in range(size)
        ]
        if t % 2:
            prefixes.insert(int(rng.integers(0, size + 1)), ((0,) * (L - 1), int(rng.integers(0, 2))))
        got = dmin_to_zero_structured(iter(prefixes), n=n, L=L)
        ref = dmin_to_zero_structured_chunked(prefixes, n=n, L=L, chunk=int(rng.integers(1, 6)))
        assert got == ref
        zero_sets += any(not any(lv) and not p for lv, p in prefixes)
    assert zero_sets >= 500


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
        main = MainCode(BinaryCode(n * L, words), n, L)
        P = construction_cstar(main)
        expected = dmin_to_zero(P)
        assert expected == min(_top_digit_norms(P) + [P.q * P.q])
        got = dmin_to_zero_structured(prefixes, n=n, L=L)
        assert got == expected


def test_dmin_upper_bound_examples():
    assert dmin_upper_bound_antiprojection(catalog.leech_main_code()) == 32
    assert dmin_upper_bound_antiprojection(catalog.worked_example("ex9")) == 16
    assert dmin_upper_bound_antiprojection(catalog.worked_example("ex10")) == 64


def test_dmin_upper_bound_of_nonlinear_main_codes():
    # S_i(0) enumerated for a main code that is not linear: the bound matches
    # the plain-loop antiprojections and bounds the lift's distance to zero
    rng = np.random.default_rng(179)
    nonlinear = 0
    for _ in range(40):
        n, L = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        words = [0] + random_words(rng, int(rng.integers(2, 12)), n * L)
        main = MainCode(BinaryCode(n * L, words), n, L)
        nonlinear += main.linear is False
        want = 4**L
        for i in range(1, L + 1):
            s = oracle_antiprojection_set(words, n, L, i, [0] * (L - 1)) - {0}
            if s:
                want = min(want, 4 ** (i - 1) * min(w.bit_count() for w in s))
        assert dmin_upper_bound_antiprojection(main) == want
        assert dmin_to_zero(construction_cstar(main)) <= want
    assert nonlinear >= 20


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


@pytest.mark.parametrize("radius", [0.5, 0, -3])
def test_eds_and_spectrum_reject_radius_below_one(radius):
    # at radius 0.5 only the rep itself is in reach, so EDS held vacuously,
    # though the same constellation fails it at d^2 = 2
    P = construction_c(catalog.worked_example("ex2"))
    with pytest.raises(ValueError, match="radius must be >= 1"):
        eds_check(P, radius)
    with pytest.raises(ValueError, match="radius must be >= 1"):
        distance_spectrum(P, (1, 1), radius)


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


def _small_lifts(rng: np.random.Generator, count: int) -> list[PeriodicConstellation]:
    """C* lifts of random linear main codes and of random word sets, <= 16 reps."""
    lifts = []
    for _ in range(count):
        n = int(rng.integers(1, 4))
        L = int(rng.integers(1, 4))
        k = int(rng.integers(0, min(n * L, 4) + 1))
        lifts.append(construction_cstar(random_linear_main_code(rng, n, L, k)))
        words = random_words(rng, int(rng.integers(1, 11)), n * L)
        lifts.append(construction_cstar(MainCode(BinaryCode(n * L, words), n, L)))
    return lifts


def _densify_through(path):
    """geometry._densify forced down one path: the sort, or the occupancy
    table given a table as wide as the key range (wider than the block
    when the dispatch would sort; ranges past 2^20 keys still sort)."""

    def densify(key, scratch):
        flat = key.reshape(-1)
        width = int(flat.max()) + 1
        if path == "table" and width <= 1 << 20:
            return geometry._densify_by_table(flat, np.empty(width, dtype=np.int64))
        return geometry._densify_by_sort(flat, scratch.reshape(-1))

    return densify


DENSIFY_PATHS = (None, "table", "sort")  # None: the width dispatch


def _assert_spectra_on_each_densify_path(monkeypatch, P, radius, expected, expected_eds):
    for path in DENSIFY_PATHS:
        with monkeypatch.context() as patch:
            if path:
                patch.setattr(geometry, "_densify", _densify_through(path))
            rows = geometry._spectra(P, P.array, int(radius * radius))
            assert [{d: int(c) for d, c in enumerate(row) if c and d} for row in rows] == expected
            assert eds_check(P, radius) == expected_eds


@pytest.mark.parametrize("block", [2, 3])
def test_scans_across_block_boundaries(monkeypatch, block):
    monkeypatch.setattr(geometry, "_BLOCK", block)
    rng = np.random.default_rng(151 + block)
    verdicts = set()
    # plus one lift wider than a tile row, so columns cross tiles too
    words = rng.choice(64, size=4 * block + 1, replace=False).tolist()
    lifts = _small_lifts(rng, 15) + [construction_cstar(MainCode(BinaryCode(6, words), 3, 2))]
    assert max(len(P) for P in lifts) > geometry._tile()[1]
    for P in lifts:
        nearest = oracle_nearest_squared(P)
        assert dmin_oracle(P) == min(nearest)
        late = [rep for rep, d in zip(P.reps, nearest) if d != min(nearest)]
        assert equi_min_distance_check(P) == ((False, late[0]) if late else (True, None))
        radius = float(P.q)
        expected = [oracle_spectrum(P, rep, radius) for rep in P.reps]
        eds = oracle_eds(P, radius)
        _assert_spectra_on_each_densify_path(monkeypatch, P, radius, expected, eds)
        verdicts.add(("equi", not late))
        verdicts.add(("eds", eds[0]))
    assert verdicts == {("equi", True), ("equi", False), ("eds", True), ("eds", False)}


@pytest.mark.parametrize("block", [2, 3])
def test_scans_across_block_boundaries_one_magnitude_per_chunk(monkeypatch, block):
    # (n + 1)^2 > 2^0: each magnitude gets its own key chunk, so every
    # composition goes through the chunk merge
    monkeypatch.setattr(geometry, "_KEY_BITS", 0)
    assert len(geometry._composition_weights(3, 8)) == 4
    test_scans_across_block_boundaries(monkeypatch, block)


def _sparse_constellation(rng, n: int, L: int, group: bool) -> PeriodicConstellation:
    """The multiples of one point of support <= 3 (a cyclic group, so EDS
    holds), or zero plus a few random such points."""
    q = 1 << L

    def sparse_point():
        point = np.zeros(n, dtype=np.int64)
        support = rng.choice(n, size=int(rng.integers(1, 4)), replace=False)
        point[support] = rng.integers(1, q, size=len(support))
        return point

    if group:
        point = sparse_point()
        points = [k * point % q for k in range(q)]
    else:
        points = [np.zeros(n, dtype=np.int64)]
        points += [sparse_point() for _ in range(int(rng.integers(1, 6)))]
    reps = sorted({tuple(int(c) for c in p) for p in points})
    return PeriodicConstellation(n=n, L=L, q=q, reps=tuple(reps))


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_spectra_match_oracle_by_composition(monkeypatch, L):
    # C* lifts up to radius 2q, and sparse constellations past n*L = 64 at a
    # radius below q, where the oracle's translate boxes stay small
    rng = np.random.default_rng(167 + L)
    q = 1 << L
    cases = []
    for _ in range(8):
        n = int(rng.integers(1, 4))
        main = random_linear_main_code(rng, n, L, int(rng.integers(0, min(n * L, 6) + 1)))
        cases.append((construction_cstar(main), float(rng.integers(1, 2 * q + 1))))
    for t in range(8):
        n = int(rng.integers(64 // L + 1, 64 // L + 9))
        P = _sparse_constellation(rng, n, L, group=t % 2 == 0)
        cases.append((P, float(rng.integers(1, q) if q > 2 else 1)))
    verdicts = set()
    for P, radius in cases:
        expected = [oracle_spectrum(P, rep, radius) for rep in P.reps]
        eds = oracle_eds(P, radius)
        _assert_spectra_on_each_densify_path(monkeypatch, P, radius, expected, eds)
        verdicts.add(eds[0])
    assert verdicts == {True, False}
    assert any(P.n * L > 64 for P, _ in cases)


@pytest.mark.parametrize("L", [7, 8])
def test_spectra_at_the_default_radius_past_l6_match_oracle(L):
    # the default EDS radius 2q reaches r2 = 4q^2 = 2^16 and 2^18, where each
    # coordinate polynomial has 2^(2L + 2) + 1 dense entries but at most 5 terms
    q = 1 << L
    radius = 2.0 * q
    lift = construction_cstar(random_linear_main_code(np.random.default_rng(191 + L), 2, L, 2))
    assert len(lift) == 4
    for P in (PeriodicConstellation(n=2, L=L, q=q, reps=((0, 0), (1, 3))), lift):
        for rep in P.reps:
            assert distance_spectrum(P, rep, radius).entries == oracle_spectrum(P, rep, radius)
        assert eds_check(P) == oracle_eds(P, radius)


def _lane_chunk_cases(rng, L: int) -> list[PeriodicConstellation]:
    """A single rep (d_min capped at q^2), random C* lifts, sparse
    constellations past n*L = 64 (several lane chunks) and up to 70 random
    points at n = 2."""
    q = 1 << L
    cases = [PeriodicConstellation(n=3, L=L, q=q, reps=((0, 0, 0),))]
    for _ in range(2):
        n = int(rng.integers(1, 4))
        main = random_linear_main_code(rng, n, L, int(rng.integers(0, min(n * L, 4) + 1)))
        cases.append(construction_cstar(main))
    for t in range(2):
        n = int(rng.integers(64 // L + 1, 64 // L + 9))
        cases.append(_sparse_constellation(rng, n, L, group=L <= 3 and t == 0))
    points = rng.choice(q * q, size=min(q * q, 70), replace=False)
    cases.append(PeriodicConstellation(n=2, L=L, q=q, reps=tuple((int(p) // q, int(p) % q) for p in points)))
    return cases


@pytest.mark.parametrize("block", [2, 3, 17])
@pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 9])
def test_lane_chunk_scans_match_oracles(monkeypatch, L, block):
    # L = 9 packs one coordinate per chunk; _BLOCK = 17 gives 2 x 68 tiles,
    # which the 70-point sets at L >= 4 cross in both directions
    monkeypatch.setattr(geometry, "_BLOCK", block)
    rng = np.random.default_rng(173 + 10 * L + block)
    q = 1 << L
    cases = _lane_chunk_cases(rng, L)
    assert any(P.n > 16 // L for P in cases)
    if L >= 4:
        assert any(len(P) > geometry._tile()[1] for P in cases)
    for P in cases:
        nearest = oracle_nearest_squared(P)
        assert geometry._nearest_sq(P).tolist() == nearest
        radius = float(rng.integers(1, min(q, 9)))
        expected = [oracle_spectrum(P, rep, radius) for rep in P.reps]
        _assert_spectra_on_each_densify_path(monkeypatch, P, radius, expected, oracle_eds(P, radius))
    assert dmin_oracle(cases[0]) == q * q  # a single rep meets only its translates


@pytest.mark.parametrize(
    "L, n, dtype",
    [
        (2, 63, np.uint8),  # n * (q/2)^2 = 252
        (2, 64, np.uint16),  # 256
        (3, 15, np.uint8),  # 240
        (3, 16, np.uint16),  # 256
        (4, 1, np.uint16),  # q^2 = 256
        (7, 15, np.uint16),  # n * (q/2)^2 = 61440
        (7, 16, np.int64),  # 65536
        (8, 1, np.int64),  # q^2 = 65536
    ],
)
def test_nearest_scan_dtype_holds_cap_and_largest_sum(L, n, dtype):
    q = 1 << L
    # zero and (q/2, ..., q/2): their distance n * (q/2)^2 is the largest sum
    far = PeriodicConstellation(n=n, L=L, q=q, reps=((0,) * n, (q // 2,) * n))
    nearest = geometry._nearest_sq(far)
    assert nearest.dtype == dtype
    assert nearest.tolist() == [min(q * q, n * (q // 2) ** 2)] * 2
    rng = np.random.default_rng(179 + L * n)
    if n >= 3:
        P = _sparse_constellation(rng, n, L, group=False)
    else:
        points = rng.choice(q, size=min(q, 20), replace=False)
        P = PeriodicConstellation(n=1, L=L, q=q, reps=tuple((int(p),) for p in points))
    assert geometry._nearest_sq(P).tolist() == oracle_nearest_squared(P)


def test_spectrum_scan_memory_is_bounded():
    # 1024 reps at n=6, L=2: one 1024 x 1024 block of composition keys
    rng = np.random.default_rng(163)
    gens = [(1 << i) | (int(rng.integers(0, 1 << 2)) << 10) for i in range(10)]
    P = construction_cstar(MainCode(enumerate_from_generator(gens, n=12), 6, 2))
    assert len(P) == 1024
    tracemalloc.start()
    try:
        eds_check(P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def test_nearest_scan_memory_is_bounded():
    # 2048 reps at n=8, L=2: the all-pairs scans stay within a few blocks
    rng = np.random.default_rng(157)
    gens = [(1 << i) | (int(rng.integers(0, 1 << 5)) << 11) for i in range(11)]
    P = construction_cstar(MainCode(enumerate_from_generator(gens, n=16), 8, 2))
    assert len(P) == 2048
    tracemalloc.start()
    try:
        dmin_oracle(P)
        equi_min_distance_check(P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_eds_keys_up_to_q_pow_n_2_64():
    # Construction A of a 64-bit code: q^n = 2^64 exactly, keys still exact
    P = construction_a(BinaryCode(64, [0, (1 << 64) - 1]))
    assert eds_check(P, 2) == (True, None)
    # past q^n = 2^64 the composition keys still answer
    wide = PeriodicConstellation(n=33, L=2, q=4, reps=((0,) * 33, (1,) * 33))
    assert eds_check(wide, 2) == oracle_eds(wide, 2) == (True, None)
