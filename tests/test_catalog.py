import hashlib

import numpy as np
import pytest

from codelat import catalog
from codelat.constructions import projection_codes
from codelat.geometry import dmin_formula_levels, dmin_upper_bound_antiprojection
from codelat.gf2 import (
    BinaryCode,
    BitWord,
    enumerate_from_generator,
    gf2_min_weight,
    min_hamming_distance,
)
from oracles import golay_syndrome, oracle_leech_contains


def test_golay_b_matrix_checksum_locked():
    blob = "".join(catalog.GOLAY_B_ROWS).encode()
    assert (
        hashlib.sha256(blob).hexdigest()
        == "0d6b615aaba44e2c1ab6f9bde5f0f0e2e47a47eec37fd37358e960232b3c51d9"
    )
    rows = catalog.golay_b_matrix()
    assert len(rows) == 12 and all(len(r) == 12 for r in rows)


def test_golay_code_invariants():
    code = catalog.golay24()
    assert len(code) == 4096
    assert min_hamming_distance(code) == 8
    weights = {}
    for w in code.words.tolist():
        weights[w.bit_count()] = weights.get(w.bit_count(), 0) + 1
    assert weights == {0: 1, 8: 759, 12: 2576, 16: 759, 24: 1}
    assert (1 << 24) - 1 in code  # the all-ones word


def test_golay_syndrome_zero_on_codewords():
    code = catalog.golay24()
    for w in code.words[:256].tolist():
        assert golay_syndrome(w) == 0
    assert golay_syndrome((1 << 24) - 1) == 0
    assert golay_syndrome(1) != 0


def test_golay_schur_closure_parity():
    # weight(a AND b) is even for Golay pairs; spot sample here, the full
    # 4096^2 scan runs in the latticeness and acceptance suites
    code = catalog.golay24()
    rng = np.random.default_rng(151)
    words = code.words
    idx = rng.integers(0, len(words), size=(500, 2))
    for i, j in idx:
        assert int(words[i] & words[j]).bit_count() % 2 == 0


def test_golay_min_weight_equals_pair_scan_at_4096_words():
    # independent oracle at the 2^12 scale: blocked XOR pair scan
    words = catalog.golay24().words
    best = 24
    for i in range(len(words) - 1):
        best = min(best, int(np.bitwise_count(words[i] ^ words[i + 1 :]).min()))
    assert best == 8 == min_hamming_distance(catalog.golay24())


def test_dn_plus():
    (rep, parity), even = catalog.dn_plus(4)
    assert even and len(rep) == 2 and len(parity) == 8
    assert min_hamming_distance(rep) == 4 and min_hamming_distance(parity) == 2
    _, expected7 = catalog.dn_plus(7)
    assert not expected7
    _, expected2 = catalog.dn_plus(2)
    assert expected2
    with pytest.raises(ValueError):
        catalog.dn_plus(1)


def test_worked_example_word_lists():
    ex4 = catalog.worked_example("ex4")
    assert {BitWord(w, ex4.inner.n).to_tuple() for w in ex4.inner.words.tolist()} == {
        (0, 0, 0, 0),
        (1, 0, 0, 1),
        (1, 0, 1, 0),
        (0, 0, 1, 1),
    }
    ex10 = catalog.worked_example("ex10")
    assert ex10.n == 1 and ex10.L == 3
    assert {BitWord(w, ex10.inner.n).to_tuple() for w in ex10.inner.words.tolist()} == {
        (0, 0, 0),
        (1, 0, 1),
        (0, 1, 1),
        (1, 1, 0),
    }
    ex13 = catalog.worked_example("ex13")
    assert ex13.n == 4 and ex13.L == 2 and len(ex13) == 4
    swapped = catalog.worked_example("ex13-swapped")
    for w in ex13.inner.words.tolist():
        c1, c2 = ex13.split(w)
        assert ex13.join((c2, c1)) in swapped.inner
    with pytest.raises(KeyError):
        catalog.worked_example("ex99")


def test_worked_examples_reproduce_projections():
    c1, c2 = projection_codes(catalog.worked_example("ex4"))
    assert sorted(BitWord(w, c1.n).to_tuple() for w in c1.words.tolist()) == [(0, 0), (1, 0)]
    assert len(c2) == 4
    ex13 = catalog.worked_example("ex13")
    p1, p2 = projection_codes(ex13)
    assert min_hamming_distance(p1) == 4 and min_hamming_distance(p2) == 2


def test_ex7_is_the_antiprojection_study_code():
    assert catalog.worked_example("ex7") == catalog.worked_example("ex5")


def test_leech_prefix_stream():
    prefixes = list(catalog.leech_main_code().prefixes())
    assert len(prefixes) == 8192
    assert ((0, 0), 0) in prefixes  # all-zero prefix, even parity
    ones = (1 << 24) - 1
    assert ((ones, 0), 1) in prefixes  # all-ones level 1 forces odd parity
    parities = {p for (_, p) in prefixes}
    assert parities == {0, 1}


def test_leech_membership_predicate():
    leech = catalog.leech_main_code()
    golay = catalog.golay24()
    ones = (1 << 24) - 1
    some_golay = int(golay.words[17])
    even_c3 = 0b11  # weight 2
    odd_c3 = 0b111  # weight 3
    ok = some_golay << 24 | even_c3 << 48
    assert leech.contains(ok)
    assert leech.contains(ones | (some_golay << 24) | (odd_c3 << 48))
    assert not leech.contains(ones | (some_golay << 24) | (even_c3 << 48))
    assert not leech.contains((0b1 << 1) | (some_golay << 24))  # level 1 not constant
    assert not leech.contains((ones ^ 1) << 24)  # level 2 not a Golay word
    assert leech.contains(0)


def test_leech_membership_matches_structure_oracle():
    # the generator form's membership, one word at a time and in one
    # member_mask batch, against the structural predicate, on span members,
    # their one-bit neighbours and 2000 random 72-bit words
    leech = catalog.leech_main_code()
    rng = np.random.default_rng(151)
    gens = leech.generators()
    members = []
    for mask in rng.integers(0, 1 << 36, size=400, dtype=np.uint64).tolist():
        word = 0
        for j, g in enumerate(gens):
            if mask >> j & 1:
                word ^= g
        members.append(word)
    flipped = [w ^ (1 << int(j)) for w, j in zip(members, rng.integers(0, 72, size=400))]
    halves = rng.integers(0, 1 << 36, size=(2000, 2), dtype=np.uint64).tolist()
    randoms = [low | high << 36 for low, high in halves]
    verdicts = {True: 0, False: 0}
    words = members + flipped + randoms
    for word in words:
        want = oracle_leech_contains(word)
        assert leech.contains(word) == want
        assert leech.contains(BitWord(word, 72)) == want
        verdicts[want] += 1
    assert verdicts[True] == len(members) and verdicts[False] >= len(flipped)
    levels = np.array([leech.split(w) for w in words], dtype=np.uint64).T
    assert leech.member_mask(levels).tolist() == [oracle_leech_contains(w) for w in words]
    assert not leech.contains(1 << 72) and not leech.contains(BitWord(0, 24))


def test_leech_antiprojection_structure():
    leech = catalog.leech_main_code()
    golay = catalog.golay24()
    s1, s2, s3 = leech.antiprojection_zero_bases()
    assert enumerate_from_generator(s1, n=24) == BinaryCode(24, [0])
    assert enumerate_from_generator(s2, n=24) == golay
    assert len(s3) == 23 and gf2_min_weight(s3) == 2  # 2^23 words
    # membership cross-checks of the structural claims
    for w in golay.words[:64].tolist():
        assert leech.contains(w << 24)  # (0, a, 0) is a codeword
    assert not leech.contains(1 << 48)  # weight-1 c3 with zero level 1
    assert leech.contains(0b11 << 48)  # weight-2 c3 with zero level 1


def test_leech_summaries():
    leech = catalog.leech_main_code()
    proj = leech.projection_bases()
    assert [gf2_min_weight(b) for b in proj] == [24, 8, 1]
    assert [len(b) for b in proj] == [1, 12, 24]
    anti = leech.antiprojection_zero_bases()
    assert [gf2_min_weight(b) for b in anti] == [None, 8, 2]
    assert dmin_upper_bound_antiprojection(leech) == 32
    assert dmin_formula_levels([gf2_min_weight(b) for b in proj]) == 16
    assert len(leech.generators()) == 36 and sum(len(b) for b in proj) == 37


def test_catalog_codes_export_in_code_file_format():
    from codelat.gf2 import parse_code_text
    from oracles import format_code_file

    golay = catalog.golay24()
    assert parse_code_text(format_code_file(golay, explicit=False)) == golay
    rep = catalog.repetition_code(6)
    assert parse_code_text(format_code_file(rep)) == rep


def test_repetition_and_parity_codes():
    rep = catalog.repetition_code(5)
    assert rep.words.tolist() == [0, 0b11111]
    parity = catalog.even_parity_code(5)
    assert len(parity) == 16
    assert all(w.bit_count() % 2 == 0 for w in parity.words.tolist())
