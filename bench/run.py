"""biquot benchmark: times the `scan`, `deep_check` and `selftest` jobs
through `biquot.cli.main` and checks their output.

    python3 bench/run.py --workload scan --seed 77 --seconds 35 --trace 0
    python3 bench/run.py --workload all      # every end-to-end metric, all workloads

With `--trace 0` the last stdout line is a JSON object carrying the
end-to-end metrics; with `--trace 1` it carries the per-layer metrics of a
separately traced job.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _last_json_line(argv: list[str], timeout: float) -> dict:
    # One process at a time: the probes and the worker never overlap.
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(argv[1:3])} timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    try:
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
    except json.JSONDecodeError:
        pass
    raise BenchError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n"
                     f"{proc.stderr.strip()[-2000:]}")


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Set-up probes, then one worker process; returns the result object."""
    if "BIQUOT_THREADS" in os.environ:
        raise BenchError("BIQUOT_THREADS is set; the benchmark measures the default "
                         "serial scan, so unset it")
    if not (ROOT / "src" / "biquot" / "cli.py").is_file():
        raise BenchError(f"no biquot sources under {ROOT / 'src'}")
    if seed < 0:
        raise BenchError(f"seed must be non-negative, got {seed}")

    worker = [sys.executable, str(HERE / "worker.py")]
    probes = [_last_json_line(worker + ["--probe"], 60.0) for _ in range(SETUP_PROBES)]
    env = probes[0]["env"]
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        raise BenchError(f"BLAS uses {env['blas_threads']} threads on "
                         f"{env['nproc']} processors")

    workdir = HERE / "_out" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        out = _last_json_line(worker + [
            "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(int(trace)), "--workdir", str(workdir)], WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["setup_s"] = median(p["import_s"] for p in probes)
    out["env"] = env
    return out


def result_line(out: dict, trace: bool) -> dict:
    if trace:
        metrics = {name: {"value": out["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": out[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": out["failed"] == 0 and out["attempted"] > 0,
            "attempted": out["attempted"], "failed": out["failed"],
            "metrics": metrics}


def report(name: str, seed: int, out: dict) -> None:
    print(f"workload {name}, seed {seed}: env {json.dumps(out['env'])}")
    jobs = ", ".join(f"{wall:.3f}/{cpu:.3f}" for wall, cpu in out["jobs"])
    print(f"  timed jobs (wall/cpu s, n={len(out['jobs'])}): {jobs}")
    if "traced_job_s" in out:
        print(f"  traced job: {out['traced_job_s']:.3f} s, spans in {out['trace_file']}")
    print(f"  failed_frac = {out['failed']}/{out['attempted']} = "
          f"{out['failed'] / out['attempted']:.6g}")
    for reason in out["reasons"][:20]:
        print(f"  FAILED: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="feeds --seed of scan and check (defaults 77 and 0); "
                             "selftest fixes its own seeds")
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            seed = WORKLOADS[name].default_seed if args.seed is None else args.seed
            out = run_workload(name, seed, args.seconds, bool(args.trace))
            report(name, seed, out)
            results[name] = result_line(out, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        for name, result in results.items():
            print(f"{name}: correct {result['correct']}, "
                  f"failed_frac {result['failed']}/{result['attempted']}")
            for metric, value in result["metrics"].items():
                print(f"  {metric} = {value['value']:.6g} {value['unit']}")
    else:
        print(json.dumps(results[args.workload]))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
