"""One benchmark process: imports biquot from the checkout's `src`, runs a
warm-up job and then timed jobs through `biquot.cli.main`, gates every job's
output and prints one JSON line.

    python3 bench/worker.py --probe
    python3 bench/worker.py --workload scan --seed 77 --seconds 35 \
        --trace 0 --workdir bench/_out/run

`--probe` only times the import and exits; `bench/run.py` starts these
processes one after another and reads their last line.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, Job, suite_lines  # noqa: E402


class LineClock(io.TextIOBase):
    """Text sink that timestamps each complete line written to it."""

    def __init__(self):
        self.lines: list[tuple[float, str]] = []
        self._partial = ""

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        stamp = time.perf_counter()
        chunks = (self._partial + text).split("\n")
        self._partial = chunks.pop()
        self.lines.extend((stamp, line) for line in chunks)
        return len(text)


def run_job(argv: list[str], out_path: Path | None) -> Job:
    import biquot.cli

    stdout, stderr = LineClock(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        wall0, cpu0 = time.perf_counter(), time.process_time()
        code = biquot.cli.main(argv)
        wall1, cpu1 = time.perf_counter(), time.process_time()
    csv = None
    if out_path is not None and out_path.exists():
        csv = out_path.read_text(encoding="utf-8")
        out_path.unlink()
    lines = [(stamp - wall0, line) for stamp, line in stdout.lines]
    return Job(exit_code=code, wall_s=wall1 - wall0, cpu_s=cpu1 - cpu0,
               lines=lines, stderr=stderr.getvalue(), csv=csv)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read from the library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment() -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    cpu_model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    """Warm-up, timed jobs and, with `trace`, one traced job whose spans go
    to `workdir/../trace-<name>.jsonl`."""
    from metrics import per_layer_values
    from tracer import Tracer

    workload = WORKLOADS[name]
    out_path = workdir / "scan.csv" if name == "scan" else None
    trace_path = workdir.parent / f"trace-{name}.jsonl"
    out = str(out_path) if out_path else ""
    attempted = failed = 0
    reasons: list[str] = []

    def gate(verdict) -> None:
        nonlocal attempted, failed
        attempted += verdict.attempted
        failed += verdict.failed
        reasons.extend(verdict.reasons)

    warm = run_job(workload.warmup_argv(seed, out), out_path)
    gate(workload.warmup_gate(warm))

    start = time.perf_counter()
    jobs: list[Job] = []
    while True:
        job = run_job(workload.argv(seed, out), out_path)
        gate(workload.gate(job, jobs[0] if jobs else None))
        jobs.append(job)
        estimate = median(j.wall_s for j in jobs)
        # A traced run keeps room for its one traced job after the timed ones.
        reserve = estimate if trace else 0.0
        if time.perf_counter() - start + estimate + reserve > seconds:
            break

    result = {
        "job_s": median(j.wall_s for j in jobs),
        "cpu_s": median(j.cpu_s for j in jobs),
        "jobs": [[j.wall_s, j.cpu_s] for j in jobs],
    }
    if trace:
        with Tracer() as tracer:
            traced = run_job(workload.argv(seed, out), out_path)
        gate(workload.gate(traced, jobs[0]))
        tracer.dump(trace_path)
        suite_s: dict[str, list[float]] = {}
        for job in jobs:
            previous = 0.0
            for stamp, suite, _ in suite_lines(job):
                suite_s.setdefault(suite, []).append(stamp - previous)
                previous = stamp
        result["traced_job_s"] = traced.wall_s
        result["trace_file"] = str(trace_path)
        result["per_layer"] = per_layer_values(
            tracer.layers(), suite_s, traced.wall_s - result["job_s"])
    result.update(
        attempted=attempted, failed=failed, reasons=reasons,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    import biquot.cli  # noqa: F401
    import_s = time.perf_counter() - start
    if args.probe:
        print(json.dumps({"import_s": import_s, "env": environment()}))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
