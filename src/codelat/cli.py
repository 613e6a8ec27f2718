"""Command-line surface: construct, check, table1, gvb, leech, conditions.

Verdicts are data, not failures: commands exit 0 whenever they ran, so a
nonlattice verdict never aborts a pipeline.  Canonical JSON goes to stdout
(or --out); floats are rounded to 6 significant digits and timing fields
stay null unless --timings is set, so repeated runs with the same inputs
are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

from . import catalog
from .constructions import (
    MainCode,
    PeriodicConstellation,
    associated_construction_c,
    construction_a,
    construction_c,
    construction_cstar,
    construction_d,
)
from .ensembles import EnsembleConfig, condition_checks, gvb_maximize, gvb_packing_efficiency
from .geometry import (
    distance_spectrum,
    dmin_formula_levels,
    dmin_oracle,
    dmin_to_zero_structured,
    dmin_upper_bound_antiprojection,
    eds_check,
    equi_min_distance_check,
)
from .gf2 import (
    DEFAULT_ENUMERATION_CAP,
    CodeFileError,
    EnumerationCapError,
    gf2_min_weight,
    read_code_file,
)
from .latticeness import (
    BudgetExceededError,
    LatticenessReport,
    brute_closure_oracle,
    thm1_check,
    thm4_check,
    thm4_check_leech,
    thm5_check,
)
from .packing import compare_from_logs, packing_report_from_counts

PAPER_TOLERANCE = 5e-4


def _round6(value):
    """Round floats to 6 significant digits (half-even), recursively."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    return value


def canonical_json(obj) -> str:
    return json.dumps(_round6(obj), indent=2, sort_keys=False)


def _emit(payload, out_path: str | None) -> None:
    text = canonical_json(payload) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _status(message: str) -> None:
    print(message, file=sys.stderr)


def _elapsed_ms(args, t0: float) -> float | None:
    """Milliseconds since ``t0`` under --timings, else None."""
    return (time.perf_counter() - t0) * 1e3 if getattr(args, "timings", False) else None


def _verdict(check, subject, args) -> LatticenessReport:
    """``check(subject)``, its report timed under --timings."""
    t0 = time.perf_counter()
    report = check(subject)
    report.elapsed_ms = _elapsed_ms(args, t0)
    return report


def _with_run_fields(args, command: str, t0: float, payload: dict, inputs=None) -> dict:
    """``payload`` after the run fields: command, inputs, outputs, elapsed_ms, seed."""
    if inputs is None:
        inputs = [f"catalog:{args.catalog}"] if getattr(args, "catalog", None) else []
        inputs += [f"code:{path}" for path in getattr(args, "code", None) or []]
        if getattr(args, "constellation", None):
            inputs.append(f"constellation:{args.constellation}")
    return {
        "command": command,
        "inputs": inputs,
        "outputs": [args.out] if args.out else ["stdout"],
        "elapsed_ms": _elapsed_ms(args, t0),
        "seed": getattr(args, "seed", None),
        **payload,
    }


def _load_codes(args) -> list:
    return [read_code_file(path, cap=args.cap) for path in args.code or []]


def _resolve_input(args):
    """Catalog id, code file(s) or constellation JSON -> library object."""
    if args.L is not None and args.L < 1:
        raise ValueError(f"--L must be >= 1, got {args.L}")
    if args.catalog:
        cid = args.catalog.lower()
        if cid == "leech":
            return catalog.leech_main_code()
        if cid == "golay24":
            return [catalog.golay24()]
        if cid == "dnplus":
            if args.n is None:
                raise ValueError("--catalog dnplus requires --n")
            codes, _ = catalog.dn_plus(args.n)
            return list(codes)
        return catalog.worked_example(cid)
    if args.constellation:
        with open(args.constellation, "r", encoding="utf-8") as fh:
            return PeriodicConstellation.from_json(json.load(fh))
    codes = _load_codes(args)
    if not codes:
        raise ValueError("no input: pass --catalog, --constellation or --code")
    if len(codes) == 1 and args.L and args.L > 1:
        if args.n is None:
            raise ValueError("a main code file needs --n and --L")
        return MainCode(codes[0], args.n, args.L)
    return codes


def _lift_kind(obj, kind: str | None) -> str:
    """The lift ``--kind`` selects for a main code or a list of level codes;
    a usage error when the input cannot take it."""
    if isinstance(obj, MainCode):
        if kind in ("a", "d"):
            raise ValueError(f"--kind {kind} lifts level codes, not a main code")
        return kind or "cstar"
    if kind == "a" and len(obj) > 1:
        raise ValueError(f"--kind a lifts one level code, got {len(obj)}")
    return kind or ("a" if len(obj) == 1 else "c")


def _as_constellation(obj, kind: str | None, cap: int) -> PeriodicConstellation:
    if isinstance(obj, PeriodicConstellation):
        return obj
    if isinstance(obj, catalog.LeechMainCode):
        raise ValueError(
            "the Leech main code is structured; use the leech command"
        )
    kind = _lift_kind(obj, kind)
    if isinstance(obj, MainCode):
        if kind == "c":
            return associated_construction_c(obj, cap=cap)
        return construction_cstar(obj, cap=cap)
    if kind == "a":
        return construction_a(obj[0])
    if kind == "d":
        return construction_d(obj, cap=cap)
    return construction_c(obj, cap=cap)  # "cstar" on level codes: C* of their product is C


def _lift_size(obj, kind: str | None) -> int:
    """Reps of the lift ``_as_constellation`` would build from linear codes,
    counted from their sizes and ranks without building it."""
    kind = _lift_kind(obj, kind)
    if isinstance(obj, MainCode):
        return 1 << sum(map(len, obj.projection_bases())) if kind == "c" else obj.num_words
    if kind == "a":
        return len(obj[0])
    if kind == "d":
        return 1 << sum(code.rank() for code in obj)
    return math.prod(map(len, obj))


def cmd_construct(args) -> int:
    obj = _resolve_input(args)
    constellation = _as_constellation(obj, args.kind, args.cap)
    _emit(constellation.to_json(), args.out)
    _status(
        f"reps={len(constellation)} q={constellation.q} n={constellation.n}"
    )
    return 0


def cmd_check(args) -> int:
    t0 = time.perf_counter()
    obj = _resolve_input(args)
    if not isinstance(obj, PeriodicConstellation):
        _lift_kind(obj, args.kind)  # a --kind the input cannot take is a usage error
    report: dict = {}
    lift = functools.cache(lambda: _as_constellation(obj, args.kind, args.cap))

    is_main = isinstance(obj, MainCode)
    lattice_methods = []
    if args.lattice == "all":
        # the code-level tests need linear codes; brute needs none, but it
        # lifts the code, so it is left out past the cap when they run
        codes = obj if isinstance(obj, list) else [obj]
        linear = all(getattr(code, "linear", False) for code in codes)
        too_big = linear and _lift_size(obj, args.kind) > args.cap
        lattice_methods = [] if too_big else ["brute"]
        if linear:
            lattice_methods += ["thm4", "thm5"] if is_main else ["thm1"]
    elif args.lattice:
        lattice_methods = [args.lattice]
        if args.lattice == "thm1" and not isinstance(obj, list):
            raise ValueError("thm1 runs on a list of level codes")
        if args.lattice in ("thm4", "thm5") and not is_main:
            raise ValueError(f"{args.lattice} runs on a main code")
    thm4 = thm4_check_leech if isinstance(obj, catalog.LeechMainCode) else thm4_check
    deciders = {"brute": brute_closure_oracle, "thm1": thm1_check, "thm4": thm4, "thm5": thm5_check}
    verdicts = {
        method: _verdict(deciders[method], lift() if method == "brute" else obj, args).as_json()
        for method in lattice_methods
    }
    if verdicts:
        report["lattice"] = verdicts

    needs_constellation = args.eds or args.equimin or args.spectrum is not None
    if needs_constellation:
        constellation = lift()
        if args.eds:
            ok, witness = eds_check(constellation, args.radius)
            report["eds"] = {"holds": ok, "witness": witness}
        if args.equimin:
            ok, witness = equi_min_distance_check(constellation)
            report["equi_min_distance"] = {
                "holds": ok,
                "witness": list(witness) if witness else None,
            }
        if args.spectrum is not None:
            rep = tuple(int(tok) for tok in args.spectrum.split(","))
            radius = 2 * constellation.q if args.radius is None else args.radius
            report["spectrum"] = distance_spectrum(
                constellation, rep, radius
            ).as_json()
    _emit(_with_run_fields(args, "check", t0, report), args.out)
    _status(f"check done in {(time.perf_counter() - t0) * 1e3:.1f} ms")
    return 0


# Printed reference-table values the recomputation is checked against;
# d^2 columns compare exactly, density and efficiency at 5e-4 absolute.
_TABLE1_PRINTED = {
    "ex4": {"d2_cstar": 1, "d2_c": 1, "delta_cstar": math.pi / 16,
            "delta_c": math.pi / 8, "rho_cstar": 0.4431, "rho_c": 0.6266},
    "ex5": {"d2_cstar": 4, "d2_c": 1, "delta_cstar": math.pi / 4,
            "delta_c": math.pi / 8, "rho_cstar": 0.8862, "rho_c": 0.4431},
    "ex6": {"d2_cstar": 32, "d2_c": 24, "delta_cstar": 0.001929,
            "delta_c": 0.00012, "rho_cstar": 0.7707, "rho_c": 0.6236},
    "ex9": {"d2_cstar": 5, "d2_c": 1, "delta_cstar": 0.8781,
            "delta_c": 0.7853, "rho_cstar": 0.9209, "rho_c": 0.8861},
    "ex10": {"d2_cstar": 1, "d2_c": 1, "delta_cstar": 0.5,
             "delta_c": 1.0, "rho_cstar": 0.5, "rho_c": 1.0},
}

_TABLE1_COLUMNS = ("d2_cstar", "d2_c", "delta_cstar", "delta_c", "rho_cstar", "rho_c")


def _associated_formula(main: MainCode) -> tuple[int, int]:
    """d_min^2 and log2 size of a linear main code's associated Construction C,
    both from the bases of its projection codes."""
    bases = main.projection_bases()
    return dmin_formula_levels([gf2_min_weight(b) for b in bases]), sum(map(len, bases))


def table1_rows() -> list[dict]:
    """Recompute the five summary rows end to end and mark printed-value
    mismatches (beyond 5e-4 for densities/efficiencies, any for d^2).

    Every row reads the associated Construction C from the projection-code
    formula; d^2 of the C* lift comes from a pair scan, or for the Leech
    code (ex6) from its prefix stream."""
    rows = []
    for ex in ("ex4", "ex5", "ex6", "ex9", "ex10"):
        if ex == "ex6":
            main = catalog.leech_main_code()
            d2_cstar = dmin_to_zero_structured(main.prefixes(), n=24, L=3)
        else:
            main = catalog.worked_example(ex)
            d2_cstar = dmin_oracle(construction_cstar(main))
        d2_c, log2_assoc = _associated_formula(main)
        rep_cstar = packing_report_from_counts(main.n, main.L, main.num_words, d2_cstar)
        rep_c = packing_report_from_counts(main.n, main.L, 1 << log2_assoc, d2_c)
        computed = {
            "d2_cstar": d2_cstar,
            "d2_c": d2_c,
            "delta_cstar": rep_cstar.delta,
            "delta_c": rep_c.delta,
            "rho_cstar": rep_cstar.rho,
            "rho_c": rep_c.rho,
        }
        printed = _TABLE1_PRINTED[ex]
        mismatches = []
        for col in _TABLE1_COLUMNS:
            if col.startswith("d2"):
                agree = computed[col] == printed[col]
            else:
                agree = abs(computed[col] - printed[col]) <= PAPER_TOLERANCE
            if not agree:
                mismatches.append(col)
        rows.append(
            {
                "example": ex,
                "dimension": main.n,
                "recomputed": computed,
                "printed": printed,
                "mismatched_cells": mismatches,
            }
        )
    return rows


def format_table1(rows: list[dict]) -> str:
    headers = ["example", "dim"] + list(_TABLE1_COLUMNS)
    lines = ["  ".join(f"{h:>12}" for h in headers)]
    for row in rows:
        cells = [row["example"], str(row["dimension"])]
        for col in _TABLE1_COLUMNS:
            val = row["recomputed"][col]
            text = f"{val:.6g}" if isinstance(val, float) else str(val)
            if col in row["mismatched_cells"]:
                text += "*"
            cells.append(text)
        lines.append("  ".join(f"{c:>12}" for c in cells))
    lines.append(
        "  (* marks cells whose recomputation disagrees with the printed table)"
    )
    return "\n".join(lines)


def cmd_table1(args) -> int:
    rows = table1_rows()
    print(format_table1(rows))
    if args.out:
        _emit({"rows": rows, "tolerance": PAPER_TOLERANCE}, args.out)
    return 0


def cmd_gvb(args) -> int:
    lines = ["alpha1,rho,levels"]
    alpha = args.step
    while alpha <= 0.5 + 1e-12:
        point = gvb_packing_efficiency(min(alpha, 0.5))
        lines.append(f"{point.alpha1:.6g},{point.rho:.6g},{point.levels_used}")
        alpha += args.step
    alpha_star, rho_star = gvb_maximize(step=min(args.step, 1e-3))
    lines.append(f"# optimum,{alpha_star:.6g},{rho_star:.6g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    _status(f"optimum alpha1={alpha_star:.6g} rho={rho_star:.6g}")
    return 0


def cmd_leech(args) -> int:
    t0 = time.perf_counter()
    leech = catalog.leech_main_code()
    chain_report = _verdict(thm4_check_leech, leech, args)
    d2 = dmin_to_zero_structured(leech.prefixes(), n=24, L=3)
    pack = packing_report_from_counts(24, 3, leech.num_words, d2)
    d2_assoc, log2_assoc = _associated_formula(leech)
    assoc_pack = packing_report_from_counts(24, 3, 1 << log2_assoc, d2_assoc)
    compare = compare_from_logs(24, d2, d2_assoc, log2_assoc - len(leech.generators()))
    scan = chain_report.detail["closures"][-1]
    payload = {
        "latticeness": chain_report.as_json(),
        "dmin2": d2,
        "dmin2_upper_bound": dmin_upper_bound_antiprojection(leech),
        "packing": pack.as_json(),
        "associated": {
            "dmin2_formula": d2_assoc,
            "printed_dmin2": 24,
            "packing": assoc_pack.as_json(),
        },
        "comparison": compare.as_json(),
        "schur_parity_scan": {
            "pairs": scan["pairs"],
            "violations": scan["violations"],
        },
    }
    _emit(_with_run_fields(args, "leech", t0, payload, inputs=["catalog:leech"]), args.out)
    _status(f"leech pipeline done in {time.perf_counter() - t0:.2f} s")
    return 0


def cmd_conditions(args) -> int:
    t0 = time.perf_counter()
    cfg = EnsembleConfig(n=args.n, L=args.L, rate=args.rate, seed=args.seed)
    report = condition_checks(cfg, trials=args.trials)
    payload = {
        "config": {"n": cfg.n, "L": cfg.L, "rate": cfg.rate, "seed": cfg.seed},
        "report": report.as_json() if report else None,
    }
    _emit(_with_run_fields(args, "conditions", t0, payload), args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports an argument error as every other usage error: one line, exit 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="codelat",
        description="Multilevel constellations from binary codes",
    )
    parser.add_argument("--threads", type=int, help="accepted for compatibility; no effect")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--catalog", help="catalog id (ex4, ex9, dnplus, leech, ...)")
        p.add_argument("--code", action="append", help="code file (repeatable)")
        p.add_argument("--constellation", help="constellation JSON file")
        p.add_argument("--n", type=int, help="level width")
        p.add_argument("--L", type=int, help="number of levels")
        p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--kind", choices=["a", "c", "cstar", "d"])

    p_construct = sub.add_parser("construct", help="lift codes to a constellation")
    add_common(p_construct)
    p_construct.set_defaults(func=cmd_construct)

    p_check = sub.add_parser("check", help="latticeness and geometry reports")
    add_common(p_check)
    p_check.add_argument("--timings", action="store_true",
                         help="include elapsed_ms in JSON (breaks byte-identity)")
    p_check.add_argument(
        "--lattice", choices=["brute", "thm1", "thm4", "thm5", "all"]
    )
    p_check.add_argument("--eds", action="store_true")
    p_check.add_argument("--equimin", action="store_true")
    p_check.add_argument("--spectrum", help="rep as comma-separated coordinates")
    p_check.add_argument("--radius", type=float, default=None)
    p_check.set_defaults(func=cmd_check)

    p_table = sub.add_parser("table1", help="recompute the summary table")
    p_table.add_argument("--out", help="also write rows as JSON")
    p_table.set_defaults(func=cmd_table1)

    p_gvb = sub.add_parser("gvb", help="packing-efficiency curve CSV")
    p_gvb.add_argument("--step", type=float, default=1e-3)
    p_gvb.add_argument("--out", help="CSV path (default stdout)")
    p_gvb.set_defaults(func=cmd_gvb)

    p_leech = sub.add_parser("leech", help="full Leech verification report")
    p_leech.add_argument("--out")
    p_leech.add_argument("--timings", action="store_true")
    p_leech.set_defaults(func=cmd_leech)

    p_cond = sub.add_parser("conditions", help="ensemble condition statistics")
    p_cond.add_argument("--n", type=int, default=2)
    p_cond.add_argument("--L", type=int, default=2)
    p_cond.add_argument("--rate", type=float, default=0.5)
    p_cond.add_argument("--trials", type=int, default=100000)
    p_cond.add_argument("--seed", type=int, default=0)
    p_cond.add_argument("--out")
    p_cond.set_defaults(func=cmd_conditions)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (
        CodeFileError,
        EnumerationCapError,
        BudgetExceededError,
        ValueError,
        KeyError,
        OSError,
    ) as err:
        _status(f"error: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
