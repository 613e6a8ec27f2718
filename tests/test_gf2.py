import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codelat import gf2, latticeness
from codelat.gf2 import (
    BinaryCode,
    BitWord,
    CodeFileError,
    EnumerationCapError,
    LengthMismatchError,
    enumerate_from_generator,
    format_code_file,
    gf2_min_weight,
    gf2_reduce_basis,
    is_nested,
    min_hamming_distance,
    parse_code_text,
)
from codelat.latticeness import LATTICE, NOT_LATTICE, thm1_check
from oracles import (
    carry_identity_check,
    oracle_linearity,
    oracle_pairwise_min_hamming,
    random_linear_code,
    random_words,
)

W = BitWord.from_string


def test_hamming_distance_examples():
    assert (W("11") ^ W("00")).weight == 2
    x = W("101101")
    assert (x ^ x).weight == 0
    # direct count over the 6 coordinates: they differ at positions 1, 4, 5
    assert (W("101101") ^ W("001011")).weight == 3
    assert W("101101").weight == 4


def test_hamming_distance_length_mismatch():
    with pytest.raises(LengthMismatchError):
        W("10") ^ W("100")
    with pytest.raises(LengthMismatchError):
        W("10") & W("100")


def test_schur_product_examples():
    assert W("1100") & W("1010") == W("1000")
    x = W("0110")
    assert x & x == x
    assert W("11") & W("11") == W("11")


def test_schur_product_algebra_exhaustive_n2():
    words = [BitWord(b, 2) for b in range(4)]
    for x, y, z in itertools.product(words, repeat=3):
        assert x & y == y & x
        assert (x & y) & z == x & (y & z)


def test_triangle_inequality_exhaustive_n4():
    words = [BitWord(b, 4) for b in range(16)]
    for x, y, z in itertools.product(words, repeat=3):
        assert (x ^ z).weight <= (x ^ y).weight + (y ^ z).weight


def test_carry_identity_exhaustive_small():
    for n in (1, 2, 3):
        for a, b in itertools.product(range(1 << n), repeat=2):
            assert carry_identity_check(BitWord(a, n), BitWord(b, n))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 64), st.data())
def test_carry_identity_random(n, data):
    x = BitWord(data.draw(st.integers(0, (1 << n) - 1)), n)
    y = BitWord(data.draw(st.integers(0, (1 << n) - 1)), n)
    assert carry_identity_check(x, y)


def test_enumerate_identity_generator():
    code = enumerate_from_generator([[1, 0], [0, 1]])
    assert sorted(BitWord(w, code.n).to_tuple() for w in code.words.tolist()) == [
        (0, 0),
        (0, 1),
        (1, 0),
        (1, 1),
    ]
    assert code.linear is True


def test_enumerate_repetition_column():
    code = enumerate_from_generator([[1, 1]])
    assert sorted(BitWord(w, code.n).to_tuple() for w in code.words.tolist()) == [(0, 0), (1, 1)]


def test_enumerate_size_is_power_of_rank():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 11))
        k = int(rng.integers(0, n + 3))
        cols = [int(x) for x in rng.integers(0, 1 << n, size=k, dtype=np.uint64)]
        code = enumerate_from_generator(cols, n=n) if cols else BinaryCode(n, [0])
        assert len(code) == 1 << len(gf2_reduce_basis(cols)) == 1 << code.rank()


def test_enumeration_cap():
    with pytest.raises(EnumerationCapError) as err:
        enumerate_from_generator([1 << i for i in range(20)], n=20, cap=1 << 10)
    assert err.value.estimated_size == 1 << 20


def test_min_distance_examples():
    rep24 = enumerate_from_generator([(1 << 24) - 1], n=24)
    assert min_hamming_distance(rep24) == 24
    parity24 = enumerate_from_generator([0b11 << i for i in range(23)], n=24)
    assert min_hamming_distance(parity24) == 2
    with pytest.raises(ValueError):
        min_hamming_distance(BinaryCode(4, [3]))


def test_min_distance_matches_pair_scan_oracle():
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(2, 11))
        code = random_linear_code(rng, n, int(rng.integers(1, n + 1)))
        if len(code) < 2:
            continue
        assert min_hamming_distance(code) == oracle_pairwise_min_hamming(
            code.words.tolist()
        )


def test_min_distance_nonlinear_pair_scan():
    code = BinaryCode(4, [0b0001, 0b0111, 0b1110])
    assert code.linear is False
    assert min_hamming_distance(code) == oracle_pairwise_min_hamming(
        code.words.tolist()
    )


def test_is_nested():
    small = BinaryCode.from_words(["00", "11"])
    parity2 = BinaryCode.from_words(["00", "11"])
    assert is_nested(small, parity2)
    other = BinaryCode.from_words(["00", "10"])
    assert not is_nested(other, small)


def test_nested_repetition_in_parity_n4():
    rep = enumerate_from_generator([0b1111], n=4)
    parity = enumerate_from_generator([0b0011, 0b0110, 0b1100], n=4)
    assert is_nested(rep, parity)


def test_schur_chain_d4_plus():
    rep = enumerate_from_generator([0b1111], n=4)
    parity = enumerate_from_generator([0b0011, 0b0110, 0b1100], n=4)
    report = thm1_check([rep, parity])
    assert report.verdict == LATTICE and report.witness is None


def test_schur_chain_d3_plus_witness():
    rep = enumerate_from_generator([0b111], n=3)
    parity = enumerate_from_generator([0b011, 0b110], n=3)
    # 111 has odd weight, so thm1 stops at the nesting test
    report = thm1_check([rep, parity])
    assert report.verdict == NOT_LATTICE
    assert report.witness == {"non_nested_level": 1}
    # the closure itself fails on the repetition code's one basis word, 111
    assert latticeness._schur_gap(rep.basis(), parity.__contains__) == (0b111, 0b111)


def test_schur_chain_single_zero_code():
    report = thm1_check([BinaryCode(3, [0])])
    assert report.verdict == LATTICE and report.witness is None


def test_linearity_flags():
    assert BinaryCode(2, [0, 1, 2, 3]).linear is True
    assert BinaryCode(2, [0, 1, 2]).linear is False
    assert BinaryCode(2, [1, 2]).linear is False  # missing zero


def test_basis_read_off_linear_words_matches_reduction():
    rng = np.random.default_rng(113)
    for trial in range(200):
        n = int(rng.integers(1, 21))
        k = int(rng.integers(0, min(n, 11) + 1)) if trial else 0
        words = random_linear_code(rng, n, k).words
        code = BinaryCode(n, words)  # no generator: verified from the words
        assert code.linear is True and code.generator is None
        assert code.basis() == gf2_reduce_basis(words.tolist())
    # past 4096 words as well: every word set is verified
    words = random_linear_code(rng, 20, 13).words
    code = BinaryCode(20, words)
    assert code.linear is True and code.basis() == gf2_reduce_basis(words.tolist())


def test_linearity_flag_matches_rank_oracle():
    rng = np.random.default_rng(127)
    for _ in range(150):
        n = int(rng.integers(1, 21))
        words = random_linear_code(rng, n, int(rng.integers(0, min(n, 11) + 1))).words
        drop = np.delete(words, int(rng.integers(0, len(words))))
        extra = int(rng.integers(0, 1 << n))
        sets = [words, drop, np.append(words, np.uint64(extra))]
        # 2^j random words with zero: power-of-two size, rarely a code
        j = int(rng.integers(1, min(n, 6) + 1))
        sets.append([0] + random_words(rng, (1 << j) - 1, n))
        for ws in sets:
            if len(ws):
                code = BinaryCode(n, ws)
                assert code.linear == oracle_linearity(code)


def test_linearity_of_large_sets_matches_rank_oracle():
    # 2^13 to 2^16 words: the linear set, one word dropped, one word added,
    # and one word swapped for a non-codeword at a random index and at the
    # last (the size stays 2^k with zero in, so only the doubling pass can
    # reject it)
    rng = np.random.default_rng(193)
    for k in range(13, 17):
        n = int(rng.integers(k + 4, 41))
        words = random_linear_code(rng, n, k).words
        assert len(words) == 1 << k
        code = BinaryCode(n, words)
        outside = next(w for w in random_words(rng, 64, n) if w not in code)
        sets = [
            words,
            np.delete(words, int(rng.integers(1, len(words)))),
            np.append(words, np.uint64(outside)),
        ]
        for i in (int(rng.integers(1, len(words))), len(words) - 1):
            swapped = words.copy()
            swapped[i] = outside
            sets.append(swapped)
        for j, ws in enumerate(sets):
            code = BinaryCode(n, ws)
            assert code.linear is oracle_linearity(code) is (j == 0)


def test_linearity_pass_memory_is_bounded():
    # the doubling comparison runs in slices: building a 2^20-word code
    # allocates its own copy of the words and little more
    rng = np.random.default_rng(197)
    words = enumerate_from_generator(random_words(rng, 20, 40), n=40).words
    assert len(words) == 1 << 20
    tracemalloc.start()
    try:
        code = BinaryCode(40, words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.linear is True and code.generator is None
    assert peak < 1.25 * words.nbytes


def test_code_file_roundtrip_explicit():
    code = BinaryCode(3, [0, 0b011, 0b101, 0b110])
    text = format_code_file(code)
    parsed = parse_code_text(text)
    assert parsed == code


def test_code_file_roundtrip_generator():
    code = enumerate_from_generator([0b0111, 0b1010], n=4)
    text = format_code_file(code, explicit=False)
    parsed = parse_code_text(text)
    assert parsed == code


def test_code_file_parse_errors_carry_line_numbers():
    with pytest.raises(CodeFileError) as err:
        parse_code_text("3 *\n1 0 1\n1 2 0\n")
    assert err.value.line == 3
    with pytest.raises(CodeFileError) as err:
        parse_code_text("# only comments\n")
    assert err.value.line == 1
    with pytest.raises(CodeFileError) as err:
        parse_code_text("4 2\n1 0 0 1\n")
    assert "generator rows" in str(err.value)


def test_comments_and_blank_lines_ignored():
    parsed = parse_code_text("# header\n2 *\n\n0 0  # zero\n1 1\n")
    assert parsed == BinaryCode(2, [0, 3])


def test_64_bit_code():
    ones = (1 << 64) - 1
    rep64 = enumerate_from_generator([ones], n=64)
    assert ones in rep64 and BitWord(ones, 64) in rep64 and 0 in rep64
    assert ones - 1 not in rep64 and 1 << 64 not in rep64
    assert min_hamming_distance(rep64) == 64 and rep64.min_nonzero_weight() == 64
    outer = BinaryCode(64, [0, 1 << 63, ones, 1])
    assert is_nested(rep64, outer) and not is_nested(outer, rep64)
    assert outer.words.tolist() == [0, 1, 1 << 63, ones]
    assert min_hamming_distance(outer) == 1
    assert parse_code_text(format_code_file(outer)) == outer


def test_code_length_limit():
    with pytest.raises(ValueError):
        BinaryCode(65, [0])
    with pytest.raises(CodeFileError) as err:
        parse_code_text("# wide\n65 *\n" + " ".join("0" * 65) + "\n")
    assert err.value.line == 2
    assert parse_code_text("64 1\n" + " ".join("1" * 64) + "\n").n == 64


def test_lookup_above_2_53():
    # 2^60 and 2^60 + 1 round to the same float64, so a float lookup errs
    code = BinaryCode(61, [(1 << 60) + 1, (1 << 60) + 3])
    assert (1 << 60) + 1 in code and (1 << 60) + 3 in code
    assert 1 << 60 not in code and (1 << 60) + 2 not in code
    probes = [1 << 60, (1 << 60) + 1, (1 << 60) + 2, (1 << 60) + 3]
    assert code.member_mask(probes).tolist() == [False, True, False, True]
    assert not is_nested(BinaryCode(61, [1 << 60]), code)


def test_scalar_membership_edges():
    ones = (1 << 64) - 1
    code = BinaryCode(64, [0, ones])
    assert 0 in code and ones in code and BitWord(ones, 64) in code
    assert -1 not in code and -ones not in code and 1 << 64 not in code
    small = BinaryCode(5, [0, 0b10110])
    assert 0 in small and 0b10110 in small and np.uint64(0b10110) in small
    assert -0b10110 not in small and 0b10111 not in small
    assert (1 << 5) | 0b10110 not in small and ones not in small  # >= 2^n
    assert BitWord(0b10110, 5) in small and BitWord(0b10110, 6) not in small
    assert 0 not in BinaryCode(3, [])


def test_word_store_matches_set_oracle():
    # membership, nesting and distance on the packed array against Python sets
    rng = np.random.default_rng(131)
    for trial in range(200):
        n = int(rng.integers(1, 65))
        if trial % 2:
            code = random_linear_code(rng, n, int(rng.integers(0, min(n, 6) + 1)))
        else:
            code = BinaryCode(n, random_words(rng, int(rng.integers(1, 41)), n))
        words = code.words.tolist()
        ref = set(words)
        assert words == sorted(ref) and len(code) == len(ref)
        probes = words + [w ^ 1 for w in words] + random_words(rng, 20, n)
        for p in probes:
            assert (p in code) == (p in ref)
            assert (BitWord(p, n) in code) == (p in ref)
        assert code.member_mask(probes).tolist() == [p in ref for p in probes]
        assert (1 << n) not in code and -1 not in code
        sub = BinaryCode(n, [w for w in words if rng.integers(0, 2)] or [words[0]])
        other = BinaryCode(n, random_words(rng, 5, n) + words[:3])
        assert is_nested(sub, code)
        assert is_nested(other, code) == (set(other.words.tolist()) <= ref)
        assert is_nested(code, other) == (ref <= set(other.words.tolist()))
        if len(code) >= 2:
            assert min_hamming_distance(code) == oracle_pairwise_min_hamming(words)


def test_min_weight_of_a_basis_matches_its_enumerated_span():
    # both paths: the unit-residual search (high rank) and the span (low rank)
    rng = np.random.default_rng(167)
    for _ in range(300):
        n = int(rng.integers(1, 17))
        code = random_linear_code(rng, n, int(rng.integers(0, n + 1)))
        want = code.min_nonzero_weight() if len(code) > 1 else None
        assert gf2_min_weight(code.basis()) == want


def test_min_weight_of_a_full_rank_basis_builds_no_span():
    units = gf2_reduce_basis(1 << j for j in range(24))
    even = gf2_reduce_basis(0b11 << j for j in range(23))
    tracemalloc.start()
    try:
        assert gf2_min_weight(units) == 1
        assert gf2_min_weight(even) == 2
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # F_2^24 would take 128 MiB


def test_min_weight_respects_the_enumeration_cap(monkeypatch):
    # weights 1 and 2 fit in a cap of 400 words, weight 3 and the span do not
    code = random_linear_code(np.random.default_rng(173), 24, 12)
    assert code.min_nonzero_weight() > 2
    monkeypatch.setattr(gf2, "DEFAULT_ENUMERATION_CAP", 400)
    with pytest.raises(EnumerationCapError):
        gf2_min_weight(code.basis())
