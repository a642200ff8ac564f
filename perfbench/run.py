"""pathkl benchmark: checked `pathkl run` workloads, timed end to end.

    python3 perfbench/run.py --workload ou-routes --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; pathkl is imported from ./src.
One process runs one workload: it writes the workload's configs (seeded
from --seed), times several set-ups in fresh interpreters, then runs whole
rounds of the configs through the `pathkl run` entry point (`cli.main`,
default --threads 1) until --seconds have passed and at least two rounds
are done. Every report is checked against closed forms (checks.py), and
every round's report bodies must be byte-identical to the first round's.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end ones (run_s, setup_s, peak_rss_mib); with --trace 1 every
round is traced (spans.py) and the metrics are the per-layer ones, and the
spans are written to .perfbench/traces/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
BLAS_THREADS = 1
SETUP_SAMPLES = 7
MIN_ROUNDS = 2  # the determinism check compares a repeated round
PROBE_TIMEOUT_S = 60


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_environment() -> None:
    """Pin BLAS threads and put ./src first, for this process and probes."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def measure_setup(config_paths: list[Path]) -> list[float]:
    """Interpreter start to configs resolved, in fresh interpreters."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), *map(str, config_paths)],
            capture_output=True, text=True, check=True,
            timeout=PROBE_TIMEOUT_S)
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def body_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "wall_clock_s"}
    text = json.dumps(body, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_round(main, config_paths: dict[str, Path], workdir: Path) -> list:
    """Run every config once through `pathkl run`; time each invocation."""
    results = []
    for op, path in config_paths.items():
        out = workdir / f"{op}.report.json"
        start = time.perf_counter()
        code = main(["run", "--config", str(path), "--out", str(out)])
        seconds = time.perf_counter() - start
        text = out.read_text(encoding="utf-8") if out.exists() else "{}"
        out.unlink(missing_ok=True)
        results.append({"op": op, "seconds": seconds, "code": code,
                        "report": json.loads(text),
                        "bytes": len(text.encode())})
    return results


def summed_medians(rounds: list[list[dict]]) -> float:
    """Sum over operations of each operation's median time."""
    return sum(statistics.median(r[i]["seconds"] for r in rounds)
               for i in range(len(rounds[0])))


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_mib"):
        return "MiB"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pathkl" / "__init__.py").is_file():
        print(f"error: no pathkl sources under {SRC}", file=sys.stderr)
        return 2
    set_environment()
    ops = workloads.configs(args.workload, args.seed)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for op, cfg in ops.items():
            paths[op] = workdir / f"{op}.json"
            paths[op].write_text(json.dumps(cfg), encoding="utf-8")
        setup = measure_setup(list(paths.values()))

        from pathkl import cli  # after set_environment: BLAS reads it once

        rounds, round_spans = [], []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or \
                time.perf_counter() - start < args.seconds:
            if args.trace:
                tracer = spans.Tracer()
                with spans.instrumented(tracer):
                    rounds.append(run_round(cli.main, paths, workdir))
                round_spans.append(tracer.spans)
            else:
                rounds.append(run_round(cli.main, paths, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = failed = 0
    problems = []
    first = {r["op"]: body_digest(r["report"]) for r in rounds[0]}
    for index, results in enumerate(rounds, start=1):
        for r in results:
            outcome = checks.assess(args.workload, r["op"], ops[r["op"]],
                                    r["code"], r["report"])
            drifted = body_digest(r["report"]) != first[r["op"]]
            if drifted:
                outcome.problems.append(
                    f"report body differs from round 1 in round {index}")
                outcome.failed = outcome.attempted
            attempted += outcome.attempted
            failed += outcome.failed
            problems += [f"{r['op']}: {p}" for p in outcome.problems]

    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"rounds {len(rounds)}")
    for i, op in enumerate(ops):
        times = " ".join(f"{r[i]['seconds']:.3f}" for r in rounds)
        print(f"seconds {args.workload}/{op} {times}")
    for op, digest in first.items():
        print(f"digest {args.workload}/{op} seed={args.seed} "
              f"config_seed={ops[op]['seed']} sha256={digest}")
    for problem in problems:
        print(f"problem {problem}", file=sys.stderr)

    if args.trace:
        per_round = []
        for results, recorded in zip(rounds, round_spans):
            metrics = spans.layer_metrics(recorded)
            metrics["cli.report_bytes"] = sum(r["bytes"] for r in results)
            metrics["trace.spans"] = len(recorded)
            per_round.append(metrics)
        values = spans.median_metrics(per_round)
        values["trace.run_s"] = summed_medians(rounds)
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_file = trace_dir / f"{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "ops": [r["op"] for r in rounds[0]],
            "rounds": [[vars(s) for s in recorded]
                       for recorded in round_spans],
            "metrics": values,
        }), encoding="utf-8")
        print(f"trace {trace_file.relative_to(ROOT)}")
    else:
        values = {"run_s": summed_medians(rounds),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mib": peak_rss_mib}
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
