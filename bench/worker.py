"""Child process of the benchmark: a set-up probe, or passes of a workload.

run.py starts it with the environment pinned and a memory limit set:

    worker.py --probe
        import codelat, print the CLOCK_MONOTONIC time the import returned
    worker.py --workload W --seed N --trace 0|1 --seconds S --until T
              --inputs DIR --out FILE [--spans FILE]
        run passes of W's job list in this process until the passes took
        S seconds (at least one pass, none starting after monotonic time
        T); cli_cold calls codelat.cli.main in-process.  FILE gets JSON
        lines: a header, one record per job, and with --trace 1 the
        per-function span totals.
"""

import argparse
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--until", type=float, default=float("inf"))
    parser.add_argument("--inputs")
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    # Everything else is imported after the stamp, so a probe and a pass
    # measure the same set-up.
    t0 = time.perf_counter()
    import codelat  # the set-up that setup_s measures
    import codelat.cli

    imported = time.monotonic()
    import_span = (t0, time.perf_counter())
    if args.probe:
        sys.stdout.write(f"{imported!r}\n")
        return 0
    return run_passes(args, imported, import_span)


def run_passes(args, imported: float, import_span: tuple[float, float]) -> int:
    import json
    from pathlib import Path

    import tracing
    import workloads

    inputs = Path(args.inputs)
    rng = workloads.seeded_rng(args.workload, args.seed)
    jobs = workloads.BUILDERS[args.workload](rng, args.seed, inputs)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.record("cli.import", *import_span)
        tracing.instrument(tracer)

    with open(args.out, "w", encoding="utf-8") as out:
        out.write(json.dumps({"imported": imported, "jobs_total": len(jobs)}) + "\n")
        out.flush()
        measured, index = 0.0, 0
        while True:
            results: dict = {}
            pass_wall = 0.0
            for job in jobs:
                record = run_job(job, results, tracer)
                record["pass"] = index
                pass_wall += record["wall"]
                out.write(json.dumps(record) + "\n")
                out.flush()
            measured += pass_wall
            index += 1
            if measured >= args.seconds or time.monotonic() + pass_wall > args.until:
                break
        if tracer is not None:
            tracer.write_jsonl(args.spans, {"workload": args.workload, "seed": args.seed})
            out.write(json.dumps({"stats": tracer.aggregate()}) + "\n")
    return 0


def run_job(job, results: dict, tracer) -> dict:
    """Time one job, then check and summarise its result untraced."""
    import workloads

    record = {"name": job.name, "wall": 0.0, "cpu": 0.0, "ok": False, "error": None, "summary": None}
    span = tracer.open(f"cli.{job.argv[0]}") if tracer is not None and job.argv else None
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        value = job.run(results)
    except Exception as err:  # a failing job is counted and the pass goes on
        record["error"] = f"{type(err).__name__}: {err}"
        return record
    finally:
        record["wall"] = time.perf_counter() - t0
        record["cpu"] = time.process_time() - c0
        if span is not None:
            tracer.close(span)
    if tracer is not None:
        tracer.active = False
    try:
        record.update(workloads.settle(job, value, results))
    finally:
        if tracer is not None:
            tracer.active = True
    return record


if __name__ == "__main__":
    sys.exit(main())
