"""gbpkit benchmark: one workload per process, outputs checked, metrics printed.

    python3 bench/run.py --workload tree --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --seed 7        # every workload in turn

Run from the repository root.  ``--trace 0`` times the commands untraced
and then measures peak memory; ``--trace 1`` runs the traced pass for the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it, and ``bench/out/``, hold the environment, sizes, sample counts
and tail percentiles.  Progress and failures go to standard error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("tree", "single-loop", "loopy")
EXIT_NO_SOURCE = 2
# One thread keeps the dense eigensolves steady on a shared machine.
BLAS_THREADS = 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="the workload to run; all of them in turn when omitted")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def use_checkout(root: Path) -> bool:
    """Put ``root/src`` and this directory on the path; False without a gbpkit source tree."""
    if not (root / "src" / "gbpkit" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(root / "src"), str(BENCH_DIR)]
    return True


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout read from ``.git``; None when it is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path, seed: int) -> dict:
    import platform

    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": git_commit(root),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, out_dir: Path,
                 env: dict, size: int | None = None) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, report).  ``size`` shrinks the models for tests."""
    import harness
    import traced

    workload = harness.WORKLOADS[name]
    seeds = harness.pool_seeds(seed)
    ledger = harness.Ledger()
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"models-{name}-{seed}-") as tmp:
        paths = harness.write_pool(workload, seed, Path(tmp), size)
        if trace:
            tracer = traced.Tracer()
            metrics, factors = traced.traced_pass(workload, seeds, paths, seconds, ledger, tracer)
            units = traced.PER_LAYER
            tracer.write(out_dir / f"spans-{name}-{seed}.jsonl", factors)
            report = {"spans": len(tracer.spans)}
        else:
            samples, yardstick, records, rounds, reference = harness.timed_pass(
                workload, seeds, paths, seconds, ledger)
            metrics = {m: samples.value(m) for m in ("setup_s", "solve_s", "analyze_s",
                                                      "simulate_s", "crosscheck_s")}
            metrics.update(harness.memory_pass(workload, paths[0], reference, ledger))
            units = harness.END_TO_END
            report = {"rounds": rounds, "samples": samples.summary(),
                      "reference_kernel_s": {**harness.tail(yardstick.kernel_s),
                                             "samples": yardstick.kernel_s},
                      "pool": [asdict(r) for r in records]}
    report.update(workload=name, trace=trace, env=env, failures=ledger.failures)
    result = {
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {m: {"value": metrics[m], "unit": unit} for m, unit in units.items()},
    }
    return result, report


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not use_checkout(root):
        print(f"error: no gbpkit source under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return EXIT_NO_SOURCE
    # Before numpy loads, which reads these once.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    env = environment(root, args.seed)
    for name in [args.workload] if args.workload else WORKLOAD_NAMES:
        result, report = run_workload(name, args.seed, args.seconds, args.trace, OUT_DIR, env)
        for failure in report["failures"]:
            print(f"FAILED {name} {failure}", file=sys.stderr)
        (OUT_DIR / f"result-{name}-{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"result": result, "report": report}, indent=1) + "\n", encoding="utf-8")
        print(json.dumps(report))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
