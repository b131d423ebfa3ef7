"""relusolve benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload eval-richardson16 --seed 1 --seconds 30 --trace 0

Run from any directory of a source checkout (it finds src/relusolve next to
this directory).  The workload runs in a fresh interpreter with BLAS and
OpenMP pinned to one thread; set-up is measured in that process and in four
more set-up-only processes, and the median is reported.  With --trace 0 the
last stdout line holds the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics; the line before it is the workload's full
report (sample counts, roundtrip-only timings, output digest).  See
bench/README.md for what each metric measures.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("eval-richardson16", "build-cg32", "roundtrip-lap2d")
SETUP_PROBES = 4
# the whole run, probes included, has to end within 180 s
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    # the workload imports relusolve from this checkout's src/ and nothing else
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, workdir: Path, deadline: float, setup_only: bool) -> dict:
    argv = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        argv.append("--setup-only")
    if args.smoke:
        argv.append("--smoke")
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise RuntimeError("no time left for the workload process")
    argv += ["--t0", repr(time.perf_counter())]
    proc = subprocess.run(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced problem sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = time.perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "relusolve" / "__init__.py").is_file():
        print(f"error: no relusolve sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        if not args.trace:
            # the first probe fills the bytecode and page caches and is not counted
            for probe in range(SETUP_PROBES + 1):
                result = run_child(args, workdir, deadline, setup_only=True)
                if probe:
                    setups.append(result["setup_s"])
        report = run_child(args, workdir, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        work_root = workdir.parent
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    values = dict(report.pop("metrics"))
    # the workload process's own set-up is one more sample
    setups.append(report.pop("setup_s"))
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
        report["detail"]["setup_s"] = {"value": values["setup_s"], "samples": len(setups)}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: workload did not report {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    if not args.trace:
        for m in wanted:
            report["detail"][m["name"]]["unit"] = m["unit"]
    print(json.dumps(report))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
