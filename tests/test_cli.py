import json

import numpy as np
import pytest

from codelat.cli import main, table1_rows
from codelat.constructions import PeriodicConstellation
from codelat.gf2 import enumerate_from_generator, format_code_file
from oracles import oracle_eds, random_words


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_cstar_catalog(capsys):
    code, out, err = run_cli(capsys, "construct", "--kind", "cstar", "--catalog", "ex4")
    assert code == 0
    data = json.loads(out)
    assert len(data["reps"]) == 4 and data["q"] == 4
    assert "reps=4" in err


def test_construct_dnplus(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--kind", "c", "--catalog", "dnplus", "--n", "7"
    )
    data = json.loads(out)
    assert data["q"] == 4 and len(data["reps"]) == 2 * 64


def test_construct_full_space_is_zn(capsys, tmp_path):
    path = tmp_path / "full.code"
    path.write_text("2 2\n1 0\n0 1\n")
    code, out, _ = run_cli(capsys, "construct", "--kind", "a", "--code", str(path))
    data = json.loads(out)
    assert data["q"] == 2 and len(data["reps"]) == 4


def test_check_lattice_all_ex9(capsys):
    code, out, _ = run_cli(capsys, "check", "--lattice", "all", "--catalog", "ex9")
    assert code == 0
    data = json.loads(out)
    assert data["lattice"]["thm4"]["verdict"] == "inconclusive"
    assert data["lattice"]["thm5"]["verdict"] == "lattice"
    assert data["lattice"]["brute"]["verdict"] == "lattice"


def test_check_eds_ex2(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--eds", "--catalog", "ex2", "--kind", "c", "--radius", "2"
    )
    data = json.loads(out)
    assert data["eds"]["holds"] is False
    assert data["eds"]["witness"]["rep_max"] == [1, 1]
    assert data["eds"]["witness"]["rep_min"] == [3, 3]


def test_check_brute_on_pure_lattice(capsys, tmp_path):
    path = tmp_path / "zero.code"
    path.write_text("3 *\n0 0 0\n")
    code, out, _ = run_cli(
        capsys, "check", "--lattice", "brute", "--kind", "a", "--code", str(path)
    )
    assert code == 0  # negative or positive verdicts both exit 0
    data = json.loads(out)
    assert data["lattice"]["brute"]["verdict"] == "lattice"


def test_check_nonlattice_exit_code_zero(capsys):
    code, out, _ = run_cli(capsys, "check", "--lattice", "thm5", "--catalog", "ex4")
    assert code == 0
    assert json.loads(out)["lattice"]["thm5"]["verdict"] == "not_lattice"


def test_check_thm5_leech(capsys):
    code, out, _ = run_cli(capsys, "check", "--lattice", "thm5", "--catalog", "leech")
    assert code == 0
    report = json.loads(out)["lattice"]["thm5"]
    assert report["verdict"] == "lattice"
    assert report["detail"] == {"dimension": 36}


def test_check_spectrum(capsys):
    code, out, _ = run_cli(
        capsys,
        "check",
        "--spectrum",
        "1,1",
        "--radius",
        "2",
        "--catalog",
        "ex2",
        "--kind",
        "c",
    )
    data = json.loads(out)
    assert {"d2": 2, "count": 2} in data["spectrum"]["entries"]


def test_table1_marks_documented_cells(capsys):
    rows = table1_rows()
    marks = {row["example"]: set(row["mismatched_cells"]) for row in rows}
    assert marks["ex4"] == set()
    assert marks["ex5"] == {"rho_c"}
    assert marks["ex6"] == {"d2_c", "rho_c"}
    assert marks["ex9"] == {"delta_cstar", "delta_c", "rho_cstar", "rho_c"}
    assert marks["ex10"] == set()

    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    assert "ex6" in out and "16*" in out


def test_table1_row_values(capsys):
    rows = {row["example"]: row for row in table1_rows()}
    assert rows["ex4"]["recomputed"]["d2_cstar"] == 1
    assert rows["ex5"]["recomputed"]["d2_cstar"] == 4
    assert rows["ex6"]["recomputed"]["d2_cstar"] == 32
    assert rows["ex6"]["recomputed"]["d2_c"] == 16
    assert rows["ex6"]["printed"]["d2_c"] == 24
    assert abs(rows["ex10"]["recomputed"]["delta_cstar"] - 0.5) < 1e-12
    assert abs(rows["ex10"]["recomputed"]["delta_c"] - 1.0) < 1e-12


def test_gvb_csv_and_optimum(capsys, tmp_path):
    out_path = tmp_path / "curve.csv"
    code, _, err = run_cli(capsys, "gvb", "--step", "0.01", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "alpha1,rho,levels"
    optimum = lines[-1]
    assert optimum.startswith("# optimum,")
    alpha_star = float(optimum.split(",")[1])
    rho_star = float(optimum.split(",")[2])
    assert 0.19 <= alpha_star <= 0.20
    assert 0.4163 <= rho_star <= 0.4173


def test_gvb_step_insensitive_optimum(capsys, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    run_cli(capsys, "gvb", "--step", "0.01", "--out", str(a))
    run_cli(capsys, "gvb", "--step", "0.001", "--out", str(b))
    opt_a = float(a.read_text().strip().splitlines()[-1].split(",")[1])
    opt_b = float(b.read_text().strip().splitlines()[-1].split(",")[1])
    assert abs(opt_a - opt_b) <= 0.01


def test_leech_command(capsys):
    code, out, _ = run_cli(capsys, "leech")
    data = json.loads(out)
    assert data["latticeness"]["verdict"] == "lattice"
    assert data["dmin2"] == 32
    assert abs(data["packing"]["rho"] - 0.7707) < 5e-4
    assert len(data["latticeness"]["detail"]["chain"]) == 5
    assert data["schur_parity_scan"]["violations"] == 0
    assert data["associated"]["dmin2_formula"] == 16
    assert data["associated"]["printed_dmin2"] == 24


def test_byte_identical_reruns(capsys):
    _, out1, _ = run_cli(capsys, "check", "--lattice", "all", "--catalog", "ex9")
    _, out2, _ = run_cli(capsys, "check", "--lattice", "all", "--catalog", "ex9")
    assert out1 == out2
    _, leech1, _ = run_cli(capsys, "leech")
    _, leech2, _ = run_cli(capsys, "leech")
    assert leech1 == leech2


def test_timings_flag_breaks_nothing(capsys):
    _, out, _ = run_cli(capsys, "check", "--lattice", "thm5", "--catalog", "ex9", "--timings")
    data = json.loads(out)
    assert data["lattice"]["thm5"]["elapsed_ms"] is not None


def test_conditions_command(capsys):
    code, out, _ = run_cli(
        capsys, "conditions", "--trials", "20000", "--seed", "3"
    )
    data = json.loads(out)
    report = data["report"]
    assert report["pair_shared_lsb"]["p_value"] < 1e-3
    assert report["pair_independent"]["p_value"] >= 1e-3


def test_code_file_parse_error_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.code"
    path.write_text("2 *\n1 0\n1 2\n")
    code, _, err = run_cli(capsys, "construct", "--kind", "a", "--code", str(path))
    assert code == 2
    assert "line 3" in err


def test_cap_exceeded_exits_nonzero(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--kind", "cstar", "--catalog", "ex9", "--cap", "2"
    )
    assert code == 2
    assert "cap" in err or "enumerate" in err


def test_check_rejects_repeated_rep(capsys, tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"n": 2, "L": 1, "q": 2, "reps": [[0, 0], [1, 1], [1, 1]]}))
    code, out, err = run_cli(capsys, "check", "--equimin", "--constellation", str(path))
    assert code == 2 and out == ""
    assert "repeated" in err


def test_check_eds_beyond_key_width_matches_oracle(capsys, tmp_path):
    # q^n = 2^66: the spectra are keyed by residue composition, not by
    # residue; radius 2 keeps the oracle at one translate per coordinate
    e1 = (1,) + (0,) * 32
    verdicts = []
    for reps in (((0,) * 33, (1,) * 33), ((0,) * 33, e1, (2,) + (0,) * 32)):
        P = PeriodicConstellation(n=33, L=2, q=4, reps=reps)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(P.to_json()))
        code, out, _ = run_cli(
            capsys, "check", "--eds", "--radius", "2", "--constellation", str(path)
        )
        assert code == 0
        holds, witness = oracle_eds(P, 2)
        assert json.loads(out)["eds"] == {"holds": holds, "witness": witness}
        verdicts.append(holds)
    assert verdicts == [True, False]


@pytest.mark.parametrize(
    "method, catalog_id, message",
    [
        ("thm4", "ex1", "thm4 runs on a main code"),
        ("thm5", "ex1", "thm5 runs on a main code"),
        ("thm1", "ex9", "thm1 runs on a list of level codes"),
    ],
)
def test_check_lattice_method_on_wrong_input_exits_2(capsys, method, catalog_id, message):
    code, out, err = run_cli(capsys, "check", "--lattice", method, "--catalog", catalog_id)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# {0, 3, 5, 6, 9, 17, 30}: seven words, so not a linear code
NONLINEAR_CODE = "5 *\n" + "".join(
    " ".join(str((w >> j) & 1) for j in range(5)) + "\n" for w in (0, 3, 5, 6, 9, 17, 30)
)


def test_check_all_on_nonlinear_code_runs_brute(capsys, tmp_path):
    path = tmp_path / "nonlinear.code"
    path.write_text(NONLINEAR_CODE)
    code, out, _ = run_cli(
        capsys, "check", "--lattice", "all", "--kind", "a", "--code", str(path)
    )
    assert code == 0
    assert list(json.loads(out)["lattice"]) == ["brute"]
    _, brute_out, _ = run_cli(
        capsys, "check", "--lattice", "brute", "--kind", "a", "--code", str(path)
    )
    assert out == brute_out


def test_check_all_on_nonlinear_level_code_runs_brute_and_geometry(capsys, tmp_path):
    path = tmp_path / "nonlinear.code"
    path.write_text(NONLINEAR_CODE)
    full = tmp_path / "full.code"
    full.write_text("5 5\n1 0 0 0 0\n0 1 0 0 0\n0 0 1 0 0\n0 0 0 1 0\n0 0 0 0 1\n")
    code, out, _ = run_cli(
        capsys, "check", "--lattice", "all", "--kind", "c", "--eds", "--radius", "2",
        "--code", str(path), "--code", str(full),
    )
    assert code == 0
    data = json.loads(out)
    assert list(data["lattice"]) == ["brute"]
    assert data["lattice"]["brute"]["verdict"] == "not_lattice"
    assert isinstance(data["eds"]["holds"], bool)


def test_check_thm1_on_nonlinear_code_exits_2(capsys, tmp_path):
    path = tmp_path / "nonlinear.code"
    path.write_text(NONLINEAR_CODE)
    code, out, err = run_cli(
        capsys, "check", "--lattice", "thm1", "--kind", "a", "--code", str(path)
    )
    assert code == 2 and out == ""
    assert "the nested-chain test requires verified-linear codes" in err


def test_check_all_on_nonlinear_main_code_runs_brute(capsys, tmp_path):
    path = tmp_path / "nonlinear.code"
    path.write_text("4 *\n0 0 0 0\n1 1 0 0\n1 0 1 0\n")
    code, out, _ = run_cli(
        capsys, "check", "--lattice", "all", "--code", str(path), "--n", "2", "--L", "2"
    )
    assert code == 0
    assert list(json.loads(out)["lattice"]) == ["brute"]


@pytest.mark.parametrize(
    "argv, methods",
    [
        (["--catalog", "leech"], ["thm4", "thm5"]),
        (["--catalog", "ex9", "--cap", "2"], ["thm4", "thm5"]),
        (["--catalog", "ex4", "--kind", "c", "--cap", "4"], ["thm4", "thm5"]),
        (["--catalog", "dnplus", "--n", "7", "--cap", "8"], ["thm1"]),
    ],
    ids=["leech", "ex9-cap-2", "ex4-associated-c-cap-4", "dnplus7-cap-8"],
)
def test_check_all_past_the_cap_runs_the_code_level_tests(capsys, argv, methods):
    # brute would lift more reps than --cap (ex4 has 4 words, but its
    # associated Construction C has 8 reps; D_7+ has 128); the code-level
    # tests read the bases
    code, out, _ = run_cli(capsys, "check", "--lattice", "all", *argv)
    assert code == 0
    verdicts = json.loads(out)["lattice"]
    assert list(verdicts) == methods
    method = methods[-1]
    _, alone, _ = run_cli(capsys, "check", "--lattice", method, *argv)
    assert verdicts[method] == json.loads(alone)["lattice"][method]


def _explicit_file(path, code):
    path.write_text(format_code_file(code))
    return str(path)


def test_check_thm1_on_explicit_files_past_4096_words(capsys, tmp_path):
    even = enumerate_from_generator([0b11 << j for j in range(13)], n=14)
    full = enumerate_from_generator([1 << j for j in range(14)], n=14)
    code, out, _ = run_cli(
        capsys, "check", "--lattice", "thm1",
        "--code", _explicit_file(tmp_path / "even14.code", even),
        "--code", _explicit_file(tmp_path / "full14.code", full),
    )
    assert code == 0
    assert json.loads(out)["lattice"]["thm1"]["verdict"] == "lattice"


@pytest.mark.parametrize("seed", [None, 3], ids=["even-by-full", "random"])
def test_check_all_on_an_explicit_main_code_past_the_cap(capsys, tmp_path, seed):
    # 2^13 words in n = 7, L = 2: the product of the even-weight and the full
    # code (a lattice), or a random linear code; given by its words
    if seed is None:
        rows = [0b11 << j for j in range(6)] + [1 << (7 + j) for j in range(7)]
    else:
        rows = random_words(np.random.default_rng(seed), 13, 14)
    main = enumerate_from_generator(rows, n=14)
    assert len(main) == 1 << 13
    explicit = _explicit_file(tmp_path / "main.code", main)
    generator = tmp_path / "gen.code"
    generator.write_text(format_code_file(main, explicit=False))
    form = ["--n", "7", "--L", "2"]
    code, out, _ = run_cli(
        capsys, "check", "--lattice", "all", "--code", explicit, *form, "--cap", "4096"
    )
    assert code == 0
    verdicts = json.loads(out)["lattice"]
    assert list(verdicts) == ["thm4", "thm5"]
    _, thm5, _ = run_cli(capsys, "check", "--lattice", "thm5", "--code", str(generator), *form)
    assert verdicts["thm5"]["verdict"] == json.loads(thm5)["lattice"]["thm5"]["verdict"]
    assert seed is not None or verdicts["thm5"]["verdict"] == "lattice"


def test_threads_flag_parses_without_effect(capsys):
    _, plain, _ = run_cli(capsys, "check", "--lattice", "thm4", "--catalog", "leech")
    code, threaded, _ = run_cli(
        capsys, "--threads", "4", "check", "--lattice", "thm4", "--catalog", "leech"
    )
    assert code == 0 and threaded == plain


def test_golay24_catalog_is_a_one_code_list(capsys):
    code, out, err = run_cli(capsys, "construct", "--kind", "a", "--catalog", "golay24")
    assert code == 0
    assert len(json.loads(out)["reps"]) == 4096 and "reps=4096" in err
    code, out, _ = run_cli(capsys, "check", "--lattice", "thm1", "--catalog", "golay24")
    assert code == 0
    assert json.loads(out)["lattice"]["thm1"]["verdict"] == "lattice"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--catalog", "dnplus"], "--catalog dnplus requires --n"),
        (["--catalog", "leech"], "the Leech main code is structured; use the leech command"),
        ([], "no input: pass --catalog, --constellation or --code"),
        (["--code", "{main}", "--L", "2"], "a main code file needs --n and --L"),
        (["--code", "{main}", "--n", "2", "--L", "0"], "--L must be >= 1, got 0"),
        (["--code", "{main}", "--n", "4", "--L", "-1"], "--L must be >= 1, got -1"),
    ],
)
def test_input_usage_errors_exit_2(capsys, tmp_path, argv, message):
    path = tmp_path / "main.code"
    path.write_text("4 *\n0 0 0 0\n1 1 0 0\n")
    argv = [a.replace("{main}", str(path)) for a in argv]
    code, out, err = run_cli(capsys, "check", "--eds", *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--eds", "--radius", "0.5"],
        ["--eds", "--radius", "0"],
        ["--eds", "--radius", "-3"],
        ["--spectrum", "1,1", "--radius", "0"],
    ],
    ids=["eds-half", "eds-zero", "eds-negative", "spectrum-zero"],
)
def test_radius_below_one_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "check", *argv, "--catalog", "ex2", "--kind", "c")
    assert code == 2 and out == ""
    assert err == "error: radius must be >= 1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"n": 2, "L": 2, "q": 4, "reps": [[0.5, 1]]}',
         "representative [0.5, 1] has a non-integer coordinate"),
        ('{"n": 2, "L": 2, "q": 4, "reps": [[1.9, 3.99]]}',
         "representative [1.9, 3.99] has a non-integer coordinate"),
        ('{"n": 2, "L": 2, "q": 4, "reps": [[0, 0], [true, 1]]}',
         "representative [True, 1] has a non-integer coordinate"),
        ('{"n": 2, "L": 2, "q": 4, "reps": [["0", "1"]]}',
         "representative ['0', '1'] has a non-integer coordinate"),
        ("[1, 2]", "a constellation file holds one JSON object"),
        ('{"n": 2.7, "L": 2, "q": 4, "reps": [[0, 1]]}',
         "constellation n must be an integer, got 2.7"),
    ],
    ids=["fraction", "truncated", "bool", "string", "array", "float-n"],
)
def test_malformed_constellation_file_exits_2(capsys, tmp_path, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "construct", "--constellation", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
