"""The four workloads: seeded inputs, fixed job lists and result checks.

Each builder takes a ``random.Random`` seeded from the workload name and
the benchmark seed, draws its inputs, and returns the job list of one
pass.  A job is one call into codelat (or one CLI command); its check runs
after the timed call and compares layers with each other, so the checks
stay valid when one layer is rewritten.

Nothing here imports codelat at module level: run.py imports this module
to spawn and check the cold CLI commands without loading the program.
"""

from __future__ import annotations

import array
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


class CheckError(Exception):
    """A job returned a wrong result."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class Job:
    name: str
    run: Callable[[dict], Any]
    check: Callable[[Any, dict], None] | None = None
    keep: bool = False  # later jobs or checks read this result
    argv: list[str] | None = None  # CLI jobs: the command line after the program


# ---------------------------------------------------------------- inputs


def seeded_rng(workload: str, seed: int) -> random.Random:
    """The source of every input of a run (string seeds hash the same everywhere)."""
    return random.Random(f"{workload}:{seed}")


def independent_words(rng, count: int, nbits: int) -> list[int]:
    """``count`` random GF(2)-independent words of ``nbits`` bits."""
    reduced: list[int] = []
    out: list[int] = []
    while len(out) < count:
        word = rng.getrandbits(nbits)
        r = word
        for b in reduced:
            r = min(r, r ^ b)
        if r:
            out.append(word)
            reduced.append(r)
            reduced.sort(reverse=True)
    return out


def span_words(cols: list[int]) -> list[int]:
    """All XOR combinations of ``cols`` (reference enumeration)."""
    words = [0]
    for c in cols:
        words += [w ^ c for w in words]
    return words


def generator_text(cols: list[int], n: int) -> str:
    """A code file in generator form: header ``n k``, then k rows of n bits."""
    rows = [" ".join(str((w >> j) & 1) for j in range(n)) for w in cols]
    return f"{n} {len(cols)}\n" + "\n".join(rows) + "\n"


def bits_to_int(bits) -> int:
    return sum(int(b) << j for j, b in enumerate(bits))


# ------------------------------------------------------ result summaries


def summarize(obj):
    """JSON-able summary of a result, used to test that reruns reproduce it."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (list, tuple)):
        return [summarize(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): summarize(v) for k, v in obj.items()}
    if hasattr(obj, "verdict"):
        return summarize(
            {
                "verdict": obj.verdict,
                "method": obj.method,
                "witness": obj.witness,
                "pairs": obj.pairs_scanned,
                "detail": obj.detail,
            }
        )
    if hasattr(obj, "entries"):
        return {"rep": list(obj.rep), "entries": sorted(obj.entries.items())}
    if hasattr(obj, "reps"):
        return {"n": obj.n, "L": obj.L, "q": obj.q, "size": len(obj), "reps": _digest(repr(obj.reps))}
    if hasattr(obj, "inner"):
        return {"n": obj.n, "L": obj.L, "code": summarize(obj.inner)}
    if hasattr(obj, "words"):
        packed = array.array("Q", obj.words).tobytes() if obj.n <= 64 else repr(obj.words)
        return {"n": obj.n, "size": len(obj), "words": _digest(packed)}
    if dataclasses.is_dataclass(obj):
        return summarize({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    return repr(obj)


def _digest(data) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def digest(summary) -> str:
    return _digest(json.dumps(summary, sort_keys=True))


def settle(job: Job, value, results: dict) -> dict:
    """Check a job's result and digest it: the ok, error and summary fields
    of its record.  Kept results go into ``results`` for later jobs."""
    try:
        if job.check is not None:
            job.check(value, results)
        fields = {"ok": True, "error": None, "summary": digest(summarize(value))}
    except Exception as err:  # a wrong result fails this job only
        fields = {"ok": False, "error": f"check: {type(err).__name__}: {err}", "summary": None}
    if job.keep:
        results[job.name] = value
    return fields


# ------------------------------------------------------------- cli_cold

CLI_CODE_SHAPE = (4, 3, 10)  # n, L, generator rank of the seeded --code input


def cli_cold(rng, seed: int, input_dir: Path) -> list[Job]:
    """Write the seeded code file and return the CLI job list.

    The code path is passed relative to the checkout root (the working
    directory of every run) so the JSON a command prints is the same for
    every run on the same seed.
    """
    n, L, k = CLI_CODE_SHAPE
    path = input_dir / "main.code"
    path.write_text(generator_text(independent_words(rng, k, n * L), n * L))
    rel = str(path.relative_to(Path.cwd()))
    commands = [
        ("construct_ex4", ["construct", "--kind", "cstar", "--catalog", "ex4"], _cli_construct(4, 2, 2)),
        ("construct_dnplus7", ["construct", "--kind", "c", "--catalog", "dnplus", "--n", "7"], _cli_construct(128, 7, 2)),
        ("check_lattice_ex9", ["check", "--lattice", "all", "--catalog", "ex9"], _cli_lattice(known="lattice")),
        ("check_eds_ex2", ["check", "--eds", "--catalog", "ex2", "--kind", "c", "--radius", "2"], _cli_eds),
        ("check_spectrum_ex2", ["check", "--spectrum", "1,1", "--radius", "2", "--catalog", "ex2", "--kind", "c"], _cli_spectrum),
        ("table1", ["table1"], _cli_table1),
        ("gvb", ["gvb", "--step", "0.001"], _cli_gvb),
        ("leech", ["leech"], _cli_leech),
        ("conditions", ["conditions", "--trials", "100000", "--seed", str(seed & 0xFFFFFFFF)], _cli_conditions),
        ("check_lattice_code", ["check", "--lattice", "all", "--code", rel, "--n", str(n), "--L", str(L)], _cli_lattice(known=None)),
    ]
    return [
        Job(name, _run_cli_in_process(argv), _cli_check(check), keep=True, argv=argv)
        for name, argv, check in commands
    ]


CLI_PREFIX = ["--threads", "1"]


def _run_cli_in_process(argv):
    def run(results):
        from codelat import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(CLI_PREFIX + argv)
        return code, out.getvalue()

    return run


def _cli_check(inner):
    def check(value, results):
        code, stdout = value
        expect(code == 0, f"exit code {code}")
        inner(stdout, results)

    return check


def _cli_construct(reps: int, n: int, L: int):
    def check(stdout, results):
        data = json.loads(stdout)
        expect((data["n"], data["L"], data["q"]) == (n, L, 1 << L), "constellation shape")
        expect(len(data["reps"]) == reps, f"{len(data['reps'])} reps, expected {reps}")
        expect(len({tuple(r) for r in data["reps"]}) == reps, "duplicate reps")
        expect(all(0 <= c < data["q"] for r in data["reps"] for c in r), "rep outside [0, q)")

    return check


def _cli_lattice(known: str | None):
    def check(stdout, results):
        verdicts = json.loads(stdout)["lattice"]
        brute, thm4, thm5 = verdicts["brute"], verdicts["thm4"], verdicts["thm5"]
        expect(thm5["verdict"] == brute["verdict"], "thm5 disagrees with the brute oracle")
        expect(thm4["verdict"] in ("lattice", "inconclusive"), "thm4 is only sufficient")
        expect(thm4["verdict"] != "lattice" or brute["verdict"] == "lattice", "thm4 lattice, brute not")
        expect(known is None or brute["verdict"] == known, f"expected {known}")

    return check


def _cli_eds(stdout, results):
    eds = json.loads(stdout)["eds"]
    witness = eds["witness"]
    expect(eds["holds"] is False and witness["d2"] == 2, "ex2 fails EDS at d2 = 2")
    expect(witness["count_max"] > witness["count_min"], "EDS witness counts must differ")


def _cli_spectrum(stdout, results):
    spectrum = json.loads(stdout)["spectrum"]
    expect(spectrum["rep"] == [1, 1], "spectrum rep")
    expect({"d2": 2, "count": 2} in spectrum["entries"], "N((1,1), 2) = 2")
    witness = json.loads(results["check_eds_ex2"][1])["eds"]["witness"]
    if witness["rep_max"] == [1, 1]:
        counts = {e["d2"]: e["count"] for e in spectrum["entries"]}
        expect(counts.get(witness["d2"]) == witness["count_max"], "EDS witness vs spectrum")


TABLE1_MISMATCHES = {
    "ex4": set(),
    "ex5": {"rho_c"},
    "ex6": {"d2_c", "rho_c"},
    "ex9": {"delta_cstar", "delta_c", "rho_cstar", "rho_c"},
    "ex10": set(),
}


def _cli_table1(stdout, results):
    lines = stdout.splitlines()
    columns = lines[0].split()[2:]
    marks = {}
    for line in lines[1:]:
        cells = line.split()
        if cells and cells[0] in TABLE1_MISMATCHES:
            marks[cells[0]] = {c for c, v in zip(columns, cells[2:]) if v.endswith("*")}
    expect(marks == TABLE1_MISMATCHES, f"table1 mismatched cells {marks}")


def _cli_gvb(stdout, results):
    lines = stdout.splitlines()
    expect(lines[0] == "alpha1,rho,levels" and len(lines) == 502, "gvb curve rows")
    _, alpha, rho = lines[-1].split(",")
    expect(abs(float(alpha) - 0.1947) <= 1e-3 and abs(float(rho) - 0.4168) <= 1e-3, "gvb optimum")


def _cli_leech(stdout, results):
    data = json.loads(stdout)
    expect(data["latticeness"]["verdict"] == "lattice", "Leech verdict")
    expect(data["dmin2"] == 32, "Leech d_min^2")
    scan = data["schur_parity_scan"]
    expect(scan == {"pairs": 8390656, "violations": 0}, f"Schur parity scan {scan}")


def _cli_conditions(stdout, results):
    report = json.loads(stdout)["report"]
    expect((report["trials"], report["cells"]) == (100000, 16), "conditions shape")
    for key, dof in (("marginal_uniform", 15), ("pair_independent", 225), ("pair_shared_lsb", 225)):
        expect(report[key]["dof"] == dof and 0.0 <= report[key]["p_value"] <= 1.0, key)
    expect(report["pair_shared_lsb"]["p_value"] < 1e-6, "shared level 1 must show dependence")


# ------------------------------------------------------------- deciders


def deciders(rng, seed: int, input_dir: Path) -> list[Job]:
    from codelat import catalog, constructions as C, gf2, geometry as G, latticeness as LT, packing as P

    def full(n: int):
        return gf2.enumerate_from_generator([1 << i for i in range(n)], n=n)

    # (tag, n, L, words, level codes of a lattice product code or None for a
    # seeded random linear code, whether the brute oracle runs)
    cases = [
        ("prod_n4L3", 4, 3, 4096, lambda: [full(4)] * 3, True),
        ("prod_n6L2", 6, 2, 4096, lambda: [full(6)] * 2, False),
        ("prod_n7L2", 7, 2, 8192, lambda: [catalog.even_parity_code(7), full(7)], False),
        ("rand_n6L3k12", 6, 3, 4096, None, True),
        ("rand_n8L2k12", 8, 2, 4096, None, True),
        ("rand_n9L2k13", 9, 2, 8192, None, False),
    ]
    jobs: list[Job] = []
    for tag, n, L, size, levels, brute in cases:
        main = f"{tag}/main"
        if levels is not None:
            # full levels, or even <= full: Schur-closed chains, so the lift is a lattice
            build = lambda r, levels=levels: C.product_main_code(levels())
            known = "lattice"
        else:
            cols = independent_words(rng, size.bit_length() - 1, n * L)
            build = lambda r, cols=cols, n=n, L=L: C.MainCode(gf2.enumerate_from_generator(cols, n=n * L), n, L)
            known = None
        jobs.append(Job(main, build, _check_size(size), keep=True))
        jobs.append(Job(f"{tag}/thm5", lambda r, m=main: LT.thm5_check(r[m]), _check_thm5(main, known), keep=True))
        jobs.append(Job(f"{tag}/thm4", lambda r, m=main: LT.thm4_check(r[m]), _check_thm4(f"{tag}/thm5"), keep=True))
        if brute:  # 4096 words only: the brute oracle takes ~53 s at 16384
            cstar = f"{tag}/cstar"
            jobs.append(Job(cstar, lambda r, m=main: C.construction_cstar(r[m]), _check_size(size), keep=True))
            jobs.append(Job(f"{tag}/brute", lambda r, c=cstar: LT.brute_closure_oracle(r[c]), _check_brute(tag)))

    dn_plus = lambda: [catalog.repetition_code(12), catalog.even_parity_code(12)]
    jobs.append(Job("dnplus12/thm1", lambda r: LT.thm1_check(dn_plus()), _check_thm1(None)))
    jobs.append(Job("non_nested/thm1", lambda r: LT.thm1_check(dn_plus()[::-1]), _check_thm1(1)))

    jobs.append(Job("leech/main", lambda r: catalog.leech_main_code(), keep=True))
    jobs.append(Job("leech/thm4", lambda r: LT.thm4_check_leech(r["leech/main"], threads=1), _check_leech_thm4))
    jobs.append(Job("leech/dmin", lambda r: G.dmin_to_zero_structured(r["leech/main"].prefixes(), n=24, L=3), _check_equal(32), keep=True))
    jobs.append(Job("leech/packing", lambda r: P.packing_report_from_counts(24, 3, r["leech/main"].num_words, r["leech/dmin"]), _check_leech_packing))
    return jobs


def _check_size(size: int):
    def check(value, results):
        expect(len(value) == size, f"{len(value)} words or reps, expected {size}")

    return check


def _check_equal(expected):
    def check(value, results):
        expect(value == expected, f"{value!r}, expected {expected!r}")

    return check


def _check_thm5(main_key: str, known: str | None):
    def check(report, results):
        from codelat import latticeness as LT

        main = results[main_key]
        expect(report.verdict in ("lattice", "not_lattice"), "thm5 is exact")
        expect(known is None or report.verdict == known, f"expected {known}")
        if report.verdict == "not_lattice":
            w = report.witness
            c, d, t = (bits_to_int(w[key]) for key in ("c", "c_tilde", "carry_tuple"))
            expect(c in main.inner and d in main.inner, "witness pair outside the code")
            record = LT.carry_terms(c, d, main.n, main.L)
            packed = sum(s.bits << ((i + 1) * main.n) for i, s in enumerate(record.s))
            expect(packed == t, "witness carry tuple does not re-derive via carry_terms")
            expect(t not in main.inner, "witness carry tuple lies in the code")

    return check


def _check_thm4(thm5_key: str):
    def check(report, results):
        expect(report.verdict in ("lattice", "inconclusive"), "thm4 is only sufficient")
        if report.verdict == "lattice":
            expect(results[thm5_key].verdict == "lattice", "thm4 lattice but thm5 not")

    return check


def _check_brute(tag: str):
    def check(report, results):
        expect(report.verdict == results[f"{tag}/thm5"].verdict, "brute oracle disagrees with thm5")
        if results[f"{tag}/thm4"].verdict == "lattice":
            expect(report.verdict == "lattice", "thm4 lattice but the brute oracle not")
        if report.verdict == "not_lattice" and "difference" in report.witness:
            cs, w = results[f"{tag}/cstar"], report.witness
            diff = [(a - b) % cs.q for a, b in zip(w["a"], w["b"])]
            expect(diff == w["difference"], "brute witness difference")
            expect(cs.contains(w["a"]) and cs.contains(w["b"]), "brute witness pair outside the reps")
            expect(not cs.contains(diff), "brute witness difference lies in the reps")

    return check


def _check_thm1(non_nested_level: int | None):
    def check(report, results):
        if non_nested_level is None:
            expect(report.verdict == "lattice", "D_n+ with n even is Schur-closed")
        else:
            expect(report.verdict == "not_lattice", "a non-nested chain is not a lattice")
            expect(report.witness == {"non_nested_level": non_nested_level}, f"witness {report.witness}")

    return check


def _check_leech_thm4(report, results):
    expect(report.verdict == "lattice", "Leech verdict")
    expect(report.pairs_scanned == 8390656, f"Leech pairs {report.pairs_scanned}")


def _check_leech_packing(report, results):
    # the Leech lattice has packing density pi^12 / 12!
    expect(math.isclose(report.delta, math.pi**12 / math.factorial(12), rel_tol=1e-9), "Leech density")


# ------------------------------------------------------------- geometry


def geometry(rng, seed: int, input_dir: Path) -> list[Job]:
    from codelat import constructions as C, ensembles as E, gf2, geometry as G, packing as P

    jobs: list[Job] = []

    def lift(tag: str, n: int, L: int, k: int) -> None:
        cols = independent_words(rng, k, n * L)
        jobs.append(Job(f"{tag}/main", lambda r: C.MainCode(gf2.enumerate_from_generator(cols, n=n * L), n, L), keep=True))
        jobs.append(Job(f"{tag}/lift", lambda r: C.construction_cstar(r[f"{tag}/main"]), _check_size(1 << k), keep=True))
        jobs.append(Job(f"{tag}/dmin_to_zero", lambda r: G.dmin_to_zero(r[f"{tag}/lift"]), keep=True))

    def dmin(tag: str, lattice: bool = False) -> None:
        jobs.append(Job(f"{tag}/dmin_oracle", lambda r: G.dmin_oracle(r[f"{tag}/lift"]), _check_dmin(tag, lattice), keep=True))

    def packing(tag: str) -> None:
        jobs.append(Job(
            f"{tag}/packing",
            lambda r: P.packing_report_from_counts(*_shape(r[f"{tag}/lift"]), r[f"{tag}/dmin_oracle"]),
            _check_packing,
        ))

    # 4096 reps at n=6: the scan whose temporaries set the multi-GiB peak
    lift("n6L3k12", 6, 3, 12)
    dmin("n6L3k12")
    packing("n6L3k12")
    # 2048 reps at n=8: d_min, equi-min and the spectrum at zero
    lift("n8L2k11", 8, 2, 11)
    dmin("n8L2k11")
    jobs.append(Job("n8L2k11/equi_min", lambda r: G.equi_min_distance_check(r["n8L2k11/lift"]), _check_equi("n8L2k11")))
    jobs.append(Job(
        "n8L2k11/spectrum",
        lambda r: G.distance_spectrum(r["n8L2k11/lift"], (0,) * 8, 2 * r["n8L2k11/lift"].q),
        _check_spectrum("n8L2k11"),
    ))
    packing("n8L2k11")
    # 1024 reps: EDS stays here, it takes ~19 s at 2048 reps
    lift("n6L2k10", 6, 2, 10)
    dmin("n6L2k10")
    jobs.append(Job("n6L2k10/eds", lambda r: G.eds_check(r["n6L2k10/lift"], 2 * r["n6L2k10/lift"].q), _check_eds("n6L2k10")))

    # Construction D of seeded nested chains is a lattice: d_min equals the distance to zero
    for tag, n, ks in (("chain_n6", 6, (1, 3, 5)), ("chain_n8", 8, (2, 5))):
        cols = independent_words(rng, ks[-1], n)
        jobs.append(Job(
            f"{tag}/lift",
            lambda r, cols=cols, n=n, ks=ks: C.construction_d([gf2.enumerate_from_generator(cols[:k], n=n) for k in ks]),
            keep=True,
        ))
        jobs.append(Job(f"{tag}/dmin_to_zero", lambda r, t=tag: G.dmin_to_zero(r[f"{t}/lift"]), keep=True))
        dmin(tag, lattice=True)
        packing(tag)

    config = E.EnsembleConfig(n=6, L=2, rate=0.75, seed=seed & 0xFFFFFFFF)
    jobs.append(Job("ensemble/main", lambda r: E.sample_main_code(config), _check_size(config.num_words), keep=True))
    jobs.append(Job("ensemble/lift", lambda r: C.construction_cstar(r["ensemble/main"]), _check_size(config.num_words), keep=True))
    dmin("ensemble")
    packing("ensemble")
    return jobs


def _shape(cs) -> tuple[int, int, int]:
    return cs.n, cs.L, len(cs)


def _check_dmin(tag: str, lattice: bool):
    def check(d2, results):
        expect(isinstance(d2, int) and d2 >= 1, f"d_min^2 = {d2!r}")
        to_zero = results.get(f"{tag}/dmin_to_zero")
        if to_zero is not None:
            expect(d2 <= to_zero, "d_min^2 above the distance to zero")
            expect(not lattice or d2 == to_zero, "a lattice's d_min^2 must equal its distance to zero")

    return check


def _check_equi(tag: str):
    def check(value, results):
        holds, witness = value
        d2, to_zero = results[f"{tag}/dmin_oracle"], results[f"{tag}/dmin_to_zero"]
        expect(not holds or d2 == to_zero, "equi-min holds but zero misses the minimum")
        expect(holds or results[f"{tag}/lift"].contains(witness), "equi-min witness is not a rep")

    return check


def _check_spectrum(tag: str):
    def check(spectrum, results):
        entries = spectrum.entries
        expect(entries and all(c > 0 for c in entries.values()), "empty spectrum")
        expect(min(entries) == results[f"{tag}/dmin_to_zero"], "spectrum at zero vs distance to zero")

    return check


def _check_eds(tag: str):
    def check(value, results):
        holds, witness = value
        if holds:
            expect(results[f"{tag}/dmin_oracle"] == results[f"{tag}/dmin_to_zero"], "EDS holds, d_min differs at zero")
        else:
            cs = results[f"{tag}/lift"]
            expect(witness["count_max"] > witness["count_min"], "EDS witness counts")
            expect(cs.contains(witness["rep_max"]) and cs.contains(witness["rep_min"]), "EDS witness reps")

    return check


def _check_packing(report, results):
    expect(0.0 < report.delta <= 1.0 + 1e-9, f"packing density {report.delta}")
    expect(math.isclose(report.rho, report.delta ** (1.0 / report.n), rel_tol=1e-9), "rho = delta^(1/n)")


# ---------------------------------------------------------------- codes


def codes(rng, seed: int, input_dir: Path) -> list[Job]:
    from codelat import catalog, constructions as C, gf2

    cols = independent_words(rng, 21, 40)
    path = input_dir / "gen18.code"
    path.write_text(generator_text(cols[:18], 40))
    ref18 = sorted(span_words(cols[:18]))
    ref20 = sorted(span_words(cols[:20]))
    d_lin = min(w.bit_count() for w in ref20 if w)
    # a 2^15-word nonlinear subset of the 2^20 code with a planted pair at
    # the minimum distance, so its minimum distance is exactly d_lin
    light = next(w for w in ref20 if w and w.bit_count() == d_lin)
    subset = set(rng.sample(ref20[1:], 1 << 15))
    base = next(w for w in sorted(subset) if w != light)
    subset.add(base ^ light)
    nonlinear_words = sorted(subset)
    sub_cols = independent_words(rng, 14, 20)
    proj_cols = independent_words(rng, 16, 24)

    jobs = [
        Job("enum20", lambda r: gf2.enumerate_from_generator(cols[:20], n=40), _check_words(ref20), keep=True),
        Job("enum21", lambda r: gf2.enumerate_from_generator(cols, n=40), _check_span(cols, rng.getrandbits(64))),
        Job("parse18", lambda r: gf2.read_code_file(path), _check_words(ref18)),
        Job("mhd_linear", lambda r: gf2.min_hamming_distance(r["enum20"]), _check_equal(d_lin)),
        Job("mhd_nonlinear", lambda r: gf2.min_hamming_distance(gf2.BinaryCode(40, nonlinear_words)), _check_equal(d_lin)),
        Job("chain8", lambda r: [catalog.repetition_code(8), catalog.even_parity_code(8), gf2.enumerate_from_generator([1 << i for i in range(8)], n=8)], keep=True),
        Job("construction_c", lambda r: C.construction_c(r["chain8"]), _check_size(1 << 16), keep=True),
        Job("construction_d", lambda r: C.construction_d(r["chain8"]), _check_same_reps("construction_c")),
        Job("product_main_code", lambda r: C.product_main_code(r["chain8"]), _check_size(1 << 16), keep=True),
        Job("construction_cstar", lambda r: C.construction_cstar(r["product_main_code"]), _check_same_reps("construction_c")),
        Job("sub14", lambda r: gf2.enumerate_from_generator(sub_cols, n=20), _check_size(1 << 14), keep=True),
        Job("construction_a", lambda r: C.construction_a(r["sub14"]), _check_construction_a("sub14")),
        Job("main16", lambda r: C.MainCode(gf2.enumerate_from_generator(proj_cols, n=24), 8, 3), _check_size(1 << 16), keep=True),
        Job("projection_codes", lambda r: C.projection_codes(r["main16"]), _check_projections("main16")),
        Job("antiprojection2", lambda r: C.antiprojection(r["main16"], 2, [0, 0]), _check_antiprojection("main16", 2)),
        Job("antiprojection3", lambda r: C.antiprojection(r["main16"], 3, [0, 0]), _check_antiprojection("main16", 3)),
    ]
    return jobs


def _check_words(reference: list[int]):
    def check(code, results):
        expect(list(code.words) == reference, "enumerated words differ from the reference span")

    return check


def _check_span(cols: list[int], probe_seed: int):
    def check(code, results):
        expect(len(code) == 1 << len(cols), f"{len(code)} words, expected 2^{len(cols)}")
        probe = probe_seed
        for _ in range(256):  # random combinations of the generators lie in the code
            word = 0
            for j, c in enumerate(cols):
                if (probe >> (j % 64)) & 1:
                    word ^= c
            expect(word in code, "a generator combination is missing")
            probe = (probe * 6364136223846793005 + 1442695040888963407) % (1 << 64)

    return check


def _check_same_reps(key: str):
    def check(constellation, results):
        expect(constellation.reps == results[key].reps, f"reps differ from {key}")

    return check


def _check_construction_a(key: str):
    def check(constellation, results):
        words = {bits_to_int(rep) for rep in constellation.reps}
        expect(words == set(results[key].words) and len(constellation) == len(words), "construction A reps")

    return check


def _levels(main, word: int) -> list[int]:
    mask = (1 << main.n) - 1
    return [(word >> (i * main.n)) & mask for i in range(main.L)]


def _check_projections(key: str):
    def check(projections, results):
        main = results[key]
        expected = [set() for _ in range(main.L)]
        for w in main.inner.words:
            for i, lv in enumerate(_levels(main, w)):
                expected[i].add(lv)
        expect([set(c.words) for c in projections] == expected, "projection codes")

    return check


def _check_antiprojection(key: str, level: int):
    def check(code, results):
        main = results[key]
        expected = set()
        for w in main.inner.words:
            parts = _levels(main, w)
            if all(p == 0 for i, p in enumerate(parts) if i != level - 1):
                expected.add(parts[level - 1])
        expect(set(code.words) == expected, f"antiprojection at level {level}")

    return check


BUILDERS = {"cli_cold": cli_cold, "deciders": deciders, "geometry": geometry, "codes": codes}
