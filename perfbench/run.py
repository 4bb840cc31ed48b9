"""Fit/predict benchmark of the otmatch command line.

    python3 perfbench/run.py --workload riot-m20 --seed 1 --seconds 30 --trace 0

Each operation is one in-process ``otmatch.cli.main([...])`` call on CSV
files, so argument parsing, CSV I/O and validation are timed with the
solver. The load is closed-loop: one op at a time, the next starting when
the previous returns. Every op's output is checked. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs each round untraced and then traced
and prints the per-layer metrics. ``--workload all`` runs every workload in
its own process. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the exit code is 0 only
when every op succeeded and passed its checks, and 2 when the checkout holds
no program to measure.

See perfbench/README.md for the workloads and what each metric measures.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"

# One BLAS thread: the loop is single-threaded, and a second thread on a
# shared two-core machine adds noise, not speed, at these matrix sizes.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The import is timed this often in fresh interpreters; setup_s counts the median.
IMPORT_REPEATS = 3


def load_program():
    """Import otmatch from this checkout's src/ and return its CLI module.

    Raises ImportError when the checkout holds no program, so the benchmark
    never measures an installed copy by accident.
    """
    src = ROOT / "src"
    if not (src / "otmatch" / "__init__.py").is_file():
        raise ImportError(f"no otmatch package under {src}")
    sys.path.insert(0, str(src))
    import otmatch.cli
    if Path(otmatch.cli.__file__).resolve().parents[1] != src:
        raise ImportError(f"otmatch was imported from {otmatch.cli.__file__}, not {src}")
    return otmatch.cli


def git_commit():
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_seconds():
    """Median wall time of a fresh interpreter importing the CLI."""
    argv = [sys.executable, "-c",
            f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import otmatch.cli"]
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_one(args):
    try:
        cli = load_program()
    except ImportError as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return None
    import_s = 0.0 if args.trace else import_seconds()

    import bench
    result = bench.run_workload(cli, import_s, WORK_DIR, args.workload, args.seed,
                                args.seconds, args.trace, args.toy)
    env = dict(bench.environment(args.seed, git_commit()),
               workload=args.workload, trace=args.trace)
    print("environment " + json.dumps(env, sort_keys=True))
    bench.print_table(result)
    return result


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return None
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description="Fit/predict benchmark of otmatch.")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes (m=6, two outer iterations) for the smoke test")
    args = parser.parse_args(argv)

    # Before numpy is first imported, which happens when the program loads.
    for name in BLAS_ENV:
        os.environ[name] = BLAS_THREADS
    result = run_all(args) if args.workload == "all" else run_one(args)
    if result is None:
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
