#!/usr/bin/env python3
"""codelat benchmark: one workload, one seed, one JSON result line.

Run from the root of a source checkout; codelat is imported from ./src:

    python3 bench/run.py --workload deciders --seed 1 --seconds 10 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
Every child process gets the pinned environment below and an address-space
limit sized from the machine's RAM.  bench/README.md explains the
workloads and what each metric should move.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import tracing
import workloads

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
DEADLINE_S = 170  # a run must end within 180 s
SETUP_PROBES = 2  # set-up samples besides the one each pass worker gives
MEMORY_SHARE = 0.7  # address-space limit of every child, as a share of RAM

# A cold CLI command: the console script's import and call, plus a stamp
# of the moment `import codelat` returned.
LAUNCHER = (
    "import sys, time\n"
    "import codelat\n"
    "sys.stderr.write(f'codelat-imported {time.monotonic()!r}\\n')\n"
    "from codelat.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)
STAMP = "codelat-imported "


class BenchError(RuntimeError):
    """The benchmark could not measure; no result line is printed."""


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        CODELAT_THREADS="1",
    )
    return env


def ram_bytes() -> int:
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


class Children:
    """Starts one child at a time and collects its wall time and rusage."""

    def __init__(self, run_dir: Path):
        self.run_dir = run_dir
        self.env = pinned_env()
        self.guard = int(MEMORY_SHARE * ram_bytes())
        self.current = None

    def _limits(self) -> None:
        resource.setrlimit(resource.RLIMIT_AS, (self.guard, self.guard))
        resource.setrlimit(resource.RLIMIT_CPU, (DEADLINE_S, DEADLINE_S + 5))

    def run(self, argv: list[str], tag: str) -> dict:
        out_path = self.run_dir / f"{tag}.stdout"
        err_path = self.run_dir / f"{tag}.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.monotonic()
            self.current = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                env=self.env, cwd=ROOT, preexec_fn=self._limits,
            )
        _, status, usage = os.wait4(self.current.pid, 0)
        wall = time.monotonic() - t0
        self.current.returncode = os.waitstatus_to_exitcode(status)
        self.current = None
        return {
            "t0": t0,
            "wall": wall,
            "cpu": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
            "code": os.waitstatus_to_exitcode(status),
            "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
            "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
        }

    def kill(self) -> None:
        if self.current is not None and self.current.returncode is None:
            self.current.kill()
            self.current.wait()


def failed_record(name: str, error: str) -> dict:
    return {"name": name, "wall": 0.0, "cpu": 0.0, "ok": False, "error": error, "summary": None}


def cold_cli_pass(children: Children, jobs, setups: list) -> tuple[list, int]:
    """Each CLI command in a fresh interpreter, as a user runs it."""
    records, rss, results = [], 0, {}
    for i, job in enumerate(jobs):
        argv = [sys.executable, "-c", LAUNCHER, *workloads.CLI_PREFIX, *job.argv]
        res = children.run(argv, f"cli{i}")
        rss = max(rss, res["maxrss_kib"])
        stamps = [line for line in res["stderr"].splitlines() if line.startswith(STAMP)]
        if stamps:
            setups.append(float(stamps[0][len(STAMP):]) - res["t0"])
        record = {"name": job.name, "wall": res["wall"], "cpu": res["cpu"]}
        record.update(workloads.settle(job, (res["code"], res["stdout"]), results))
        if not record["ok"]:
            record["error"] += f"; stderr: {res['stderr'][-300:]}"
        records.append(record)
    return records, rss


def worker_passes(children: Children, args, inputs: Path, trace: int, tag: str, seconds: float, until: float):
    """Passes of a workload's jobs in one fresh worker process.

    Returns the job records grouped by pass, the worker's header, its span
    totals (traced runs) and its process result.
    """
    out = children.run_dir / f"{tag}.jsonl"
    spans = WORK / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
    argv = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--trace", str(trace), "--seconds", str(seconds),
        "--until", repr(until), "--inputs", str(inputs), "--out", str(out), "--spans", str(spans),
    ]
    res = children.run(argv, tag)
    lines = [json.loads(line) for line in out.read_text().splitlines()] if out.exists() else []
    header = lines[0] if lines else {}
    passes: list[list] = []
    for line in lines[1:]:
        if "name" in line:
            if line["pass"] == len(passes):
                passes.append([])
            passes[-1].append(line)
    stats = next((line["stats"] for line in lines if "stats" in line), None)
    if res["code"] != 0:
        error = f"worker exited with {res['code']}: {res['stderr'][-500:]}"
        total = header.get("jobs_total", 1)
        if not passes or len(passes[-1]) >= total:
            passes.append([])
        passes[-1] += [failed_record("unfinished", error)] * (total - len(passes[-1]))
    return passes, header, stats, res


def source_digest() -> str:
    """Digest of the program and of this benchmark, which fixes the inputs."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(path.parents[1])).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_reproducible(workload: str, seed: int, passes: list, src: str) -> None:
    """Fail any job whose result differs from an earlier run of this source and seed."""
    path = WORK / "outputs.json"
    try:
        store = json.loads(path.read_text())
    except (OSError, ValueError):
        store = {}
    if store.get("source") != src:
        store = {"source": src, "outputs": {}}
    outputs = store["outputs"]
    for records in passes:
        for rec in records:
            if rec["summary"] is None:
                continue
            known = outputs.setdefault(f"{workload}:{seed}:{rec['name']}", rec["summary"])
            if known != rec["summary"]:
                rec["ok"] = False
                rec["error"] = "result differs from an earlier run with the same source and seed"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store))
    os.replace(tmp, path)


def measure(args, children: Children, inputs: Path, info: dict, deadline: float) -> tuple[dict, list]:
    """Untraced run: end-to-end metrics over the passes that fit in --seconds."""
    setups: list[float] = []
    if args.workload == "cli_cold":
        rng = workloads.seeded_rng(args.workload, args.seed)
        jobs = workloads.cli_cold(rng, args.seed, inputs)
        passes, rss = [], 0
        begin = time.monotonic()
        while True:
            records, pass_rss = cold_cli_pass(children, jobs, setups)
            passes.append(records)
            rss = max(rss, pass_rss)
            now = time.monotonic()
            if now - begin >= args.seconds or now + (now - begin) / len(passes) > deadline:
                break
    else:
        for i in range(SETUP_PROBES):
            res = children.run([sys.executable, str(BENCH / "worker.py"), "--probe"], f"probe{i}")
            if res["code"] != 0:
                raise BenchError(f"import codelat failed: {res['stderr'][-500:]}")
            setups.append(float(res["stdout"]) - res["t0"])
        passes, header, _, res = worker_passes(children, args, inputs, 0, "passes", args.seconds, deadline)
        if "imported" in header:
            setups.append(header["imported"] - res["t0"])
        rss = res["maxrss_kib"]
    if not setups:
        raise BenchError("no set-up sample: codelat never imported")
    walls = [sum(r["wall"] for r in records) for records in passes]
    cpus = [sum(r["cpu"] for r in records) for records in passes]
    info.update(pass_wall_s=walls, setup_samples_s=setups)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mib": (rss / 1024.0, "MiB"),
    }
    return metrics, passes


def trace_run(args, children: Children, inputs: Path, info: dict, deadline: float) -> tuple[dict, list]:
    """Traced run: per-layer metrics, and the overhead against an untraced pass."""
    plain, _, _, _ = worker_passes(children, args, inputs, 0, "untraced", 0.0, deadline)
    traced, _, stats, _ = worker_passes(children, args, inputs, 1, "traced", 0.0, deadline)
    plain_wall = sum(r["wall"] for p in plain for r in p)
    traced_wall = sum(r["wall"] for p in traced for r in p)
    info.update(untraced_wall_s=plain_wall, traced_wall_s=traced_wall)
    metrics = tracing.per_layer_metrics(stats or {}, traced_wall - plain_wall)
    return {k: (v["value"], v["unit"]) for k, v in metrics.items()}, plain + traced


def on_alarm(signum, frame):
    raise BenchError(f"run exceeded {DEADLINE_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.BUILDERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "codelat" / "__init__.py").is_file():
        print("bench: run from the root of a codelat checkout (src/codelat is missing)", file=sys.stderr)
        return 2

    # Keep the run and every child on one CPU, so no pass pays for
    # migrations or for waking an idle core after each spawn.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    started = time.monotonic()
    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(DEADLINE_S)
    run_dir = WORK / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    inputs = WORK / "inputs" / f"{args.workload}-seed{args.seed}"
    for d in (run_dir, inputs, WORK / "traces"):
        d.mkdir(parents=True, exist_ok=True)
    children = Children(run_dir)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "ram_gib": ram_bytes() / 2**30,
        "memory_guard_gib": children.guard / 2**30,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": git_commit(),
    }
    try:
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
            env=children.env, check=True, stdout=subprocess.DEVNULL,
        )
        info["source_sha256"] = src = source_digest()
        run = trace_run if args.trace else measure
        metrics, passes = run(args, children, inputs, info, started + DEADLINE_S - 30)
        check_reproducible(args.workload, args.seed, passes, src)
    except (BenchError, subprocess.CalledProcessError, OSError) as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        children.kill()
        shutil.rmtree(run_dir, ignore_errors=True)
        shutil.rmtree(inputs, ignore_errors=True)

    attempted = sum(len(p) for p in passes)
    failed = sum(not r["ok"] for p in passes for r in p)
    if not args.trace:
        metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")
    info["failures"] = [f"{r['name']}: {r['error']}" for p in passes for r in p if not r["ok"]][:20]
    for line in info["failures"]:
        print(f"bench: failed {line}", file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return None
    return res.stdout.strip() or None


if __name__ == "__main__":
    sys.exit(main())
