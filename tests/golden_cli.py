"""Golden CLI transcript: regenerate or check the files under tests/golden/.

Each case runs ``codelat.cli.main(argv)`` in-process, in a fresh working
directory holding the case's input files, and records its exit status,
its stdout, the file it writes with ``--out`` and, when it fails, its
stderr (successful runs print timings there, so their stderr is not
kept).  ``manifest.json`` lists each case's argv and exit status, and
names each output's file; an empty output is kept as "" and one above
``INLINE_LIMIT`` bytes as its sha256.

    python tests/golden_cli.py           # rewrite tests/golden/ from the code
    python tests/golden_cli.py --check   # compare; exit 1 on any difference

The script uses the standard library only and imports whichever
``codelat`` the interpreter finds: run it with ``PYTHONPATH=src`` for the
source tree, or with an environment's Python for the installed package.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
INPUT_DIR = GOLDEN_DIR / "inputs"
MANIFEST = GOLDEN_DIR / "manifest.json"
INLINE_LIMIT = 64 * 1024


def _cases() -> list[tuple[str, list[str], dict[str, str]]]:
    """(id, argv, files) in run order; ``files`` maps a name in the working
    directory to a file under tests/golden/ copied there first."""
    cases = [
        # the README's CLI block, line by line
        ("readme-construct-cstar-ex4", "construct --kind cstar --catalog ex4", {}),
        ("readme-construct-c-dnplus7", "construct --kind c --catalog dnplus --n 7", {}),
        ("readme-check-all-ex9", "check --lattice all --catalog ex9", {}),
        ("readme-check-thm5-leech", "check --lattice thm5 --catalog leech", {}),
        ("readme-check-brute-d-dnplus18",
         "check --lattice brute --kind d --catalog dnplus --n 18", {}),
        ("readme-check-brute-dnplus17", "check --lattice brute --catalog dnplus --n 17", {}),
        ("readme-check-eds-ex2", "check --eds --catalog ex2 --kind c --radius 2", {}),
        ("readme-check-spectrum-ex2",
         "check --spectrum 1,1 --radius 2 --catalog ex2 --kind c", {}),
        ("readme-construct-ex9-out", "construct --kind cstar --catalog ex9 --out ex9.json", {}),
        ("readme-check-reload-ex9", "check --lattice brute --eds --constellation ex9.json",
         {"ex9.json": "readme-construct-ex9-out.out"}),
        ("readme-table1", "table1", {}),
        ("readme-gvb-out", "gvb --step 0.001 --out curve.csv", {}),
        ("readme-leech", "leech", {}),
        ("readme-conditions", "conditions --trials 100000 --seed 0", {}),
        # whole-program commands
        ("gvb", "gvb --step 0.001", {}),
        ("table1-out", "table1 --out table1.json", {}),
        ("check-thm4-leech", "check --lattice thm4 --catalog leech", {}),
        ("check-all-leech", "check --lattice all --catalog leech", {}),
        ("check-all-dnplus7-cap8", "check --lattice all --catalog dnplus --n 7 --cap 8", {}),
    ]
    inputs = {
        "ex2-c": "--catalog ex2 --kind c",
        "ex4": "--catalog ex4",
        "ex5": "--catalog ex5",
        "ex9": "--catalog ex9",
        "ex10": "--catalog ex10",
        "dnplus5": "--catalog dnplus --n 5",
        "dnplus6": "--catalog dnplus --n 6",
        "golay24-a": "--catalog golay24 --kind a",
    }
    main_codes = ("ex4", "ex5", "ex9", "ex10")
    for tag, source in inputs.items():
        cases.append((f"construct-{tag}", f"construct {source}", {}))
        cases.append(
            (f"check-all-{tag}", f"check --lattice all --eds --equimin {source}", {})
        )
        for method in ("thm4", "thm5") if tag in main_codes else ("thm1",):
            cases.append((f"check-{method}-{tag}", f"check --lattice {method} {source}", {}))
    # usage errors: exit 2, one "error:" line, nothing on stdout
    cases += [
        ("error-thm4-on-levels", "check --lattice thm4 --catalog ex1", {}),
        ("error-thm5-on-levels", "check --lattice thm5 --catalog ex1", {}),
        ("error-thm1-on-main", "check --lattice thm1 --catalog ex9", {}),
        ("error-dnplus-without-n", "check --eds --catalog dnplus", {}),
        ("error-leech-geometry", "check --eds --catalog leech", {}),
        ("error-no-input", "check --eds", {}),
        ("error-main-file-without-n", "check --eds --code main4.code --L 2",
         {"main4.code": "inputs/main4.code"}),
        ("error-thm1-nonlinear", "check --lattice thm1 --kind a --code nonlinear5.code",
         {"nonlinear5.code": "inputs/nonlinear5.code"}),
        ("error-cap", "construct --kind cstar --catalog ex9 --cap 2", {}),
        ("error-code-file-line", "construct --kind a --code bad.code",
         {"bad.code": "inputs/bad.code"}),
        ("error-fractional-rep", "construct --constellation fraction.json",
         {"fraction.json": "inputs/fraction.json"}),
        ("error-eds-radius-half", "check --eds --radius 0.5 --catalog ex2 --kind c", {}),
        ("error-eds-radius-zero", "check --eds --radius 0 --catalog ex2 --kind c", {}),
        ("error-eds-radius-negative", "check --eds --radius -3 --catalog ex2 --kind c", {}),
        ("error-spectrum-radius-zero",
         "check --spectrum 1,1 --radius 0 --catalog ex2 --kind c", {}),
        ("error-eds-radius-inf", "check --eds --radius inf --catalog ex2 --kind c", {}),
        ("error-spectrum-radius-nan",
         "check --spectrum 1,1 --radius nan --catalog ex2 --kind c", {}),
        ("error-levels-zero", "construct --kind cstar --code main6.code --n 3 --L 0",
         {"main6.code": "inputs/main6.code"}),
        ("error-levels-negative", "construct --kind cstar --code main6.code --n 3 --L -1",
         {"main6.code": "inputs/main6.code"}),
        ("error-kind-a-two-codes", "construct --kind a --catalog dnplus --n 5", {}),
        ("error-kind-d-main-code", "construct --kind d --catalog ex4", {}),
        ("error-construct-timings", "construct --catalog ex4 --timings", {}),
    ]
    return [(cid, line.split(), files) for cid, line, files in cases]


CASES = _cases()


def _out_path(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def run_case(argv: list[str], files: dict[str, str]) -> dict:
    """Run one case in-process; returns exit status and raw output bytes."""
    from codelat.cli import main

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        for name, source in files.items():
            shutil.copyfile(GOLDEN_DIR / source, Path(work) / name)
        out, err = io.StringIO(), io.StringIO()
        os.chdir(work)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(list(argv))
        finally:
            os.chdir(cwd)
        out_file = _out_path(argv)
        written = (Path(work) / out_file).read_bytes() if out_file else None
    return {
        "exit": status,
        "stdout": out.getvalue().encode(),
        "out": written,
        "stderr": err.getvalue().encode() if status else None,
    }


def expected(cid: str) -> dict:
    """The recorded result of case ``cid``, digests left as digests."""
    entry = json.loads(MANIFEST.read_text())[cid]
    result: dict = {"exit": entry["exit"]}
    for stream in ("stdout", "out", "stderr"):
        ref = entry.get(stream)
        if ref is None or ref.startswith("sha256:"):
            result[stream] = ref
        elif not ref:
            result[stream] = b""
        else:
            result[stream] = (GOLDEN_DIR / ref).read_bytes()
    return result


def observed(argv: list[str], files: dict[str, str]) -> dict:
    """``run_case``'s result in the form ``expected`` returns."""
    result = run_case(argv, files)
    return {
        stream: (
            _digest(data)
            if isinstance(data, bytes) and len(data) > INLINE_LIMIT
            else data
        )
        for stream, data in result.items()
    }


def regenerate() -> None:
    keep = {MANIFEST.name, INPUT_DIR.name}
    for path in GOLDEN_DIR.iterdir():
        if path.name not in keep:
            path.unlink()
    manifest = {}
    for cid, argv, files in CASES:
        result = observed(argv, files)
        entry = manifest[cid] = {"argv": argv, "exit": result["exit"]}
        for stream in ("stdout", "out", "stderr"):
            data = result[stream]
            if data is None:
                continue
            if isinstance(data, bytes) and data:
                entry[stream] = f"{cid}.{stream}"
                (GOLDEN_DIR / entry[stream]).write_bytes(data)
            else:
                entry[stream] = data or ""  # a digest, or "" for no output
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")


def check() -> list[str]:
    """Ids of the cases whose output differs from the recorded one."""
    recorded = json.loads(MANIFEST.read_text())
    failed = sorted(set(recorded) - {cid for cid, _, _ in CASES})
    for cid, argv, files in CASES:
        if recorded.get(cid, {}).get("argv") != argv or observed(argv, files) != expected(cid):
            failed.append(cid)
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against tests/golden/ instead of rewriting it")
    args = parser.parse_args(argv)
    if not args.check:
        regenerate()
        print(f"wrote {len(CASES)} cases to {GOLDEN_DIR}")
        return 0
    failed = check()
    for cid in failed:
        print(f"differs: {cid}")
    print(f"{len(CASES) - len(failed)}/{len(CASES)} golden cases match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
