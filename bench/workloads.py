"""The three benchmark workloads: the argv each job passes to
`biquot.cli.main`, and the gate that checks each job's output.

A gate never retries and never drops a miss: every operation it cannot
confirm counts as failed.  The operation is one CSV row for `scan`, the one
certified angle for `deep_check` and one property suite for `selftest`.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path

FLOOR_MIN = 1e-6
REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

SCAN_TO = str(math.pi / 6.0 - 0.01)
PI12 = str(math.pi / 12.0)


@dataclass
class Job:
    """What one call of `biquot.cli.main` produced."""

    exit_code: int
    wall_s: float
    cpu_s: float
    lines: list[tuple[float, str]]
    stderr: str = ""
    csv: str | None = None


@dataclass
class Verdict:
    """Gate outcome of one job."""

    attempted: int
    failed: int
    reasons: list[str] = field(default_factory=list)

    def miss(self, reason: str, count: int = 1) -> None:
        self.failed += count
        self.reasons.append(reason)


def _stdout(job: Job) -> str:
    return "".join(line + "\n" for _, line in job.lines)


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

def scan_argv(seed: int, out: str, steps: int = 50) -> list[str]:
    return ["scan", "--from", "0.05", "--to", SCAN_TO, "--steps", str(steps),
            "--starts", "4", "--iterations", "120", "--seed", str(seed),
            "--out", out]


def gate_scan(job: Job, first: Job | None, steps: int = 50) -> Verdict:
    """Every row positive with a search floor of at least 1e-6, the
    seed-independent columns equal to the recorded reference, and every
    row byte-identical to the same row of the run's first job."""
    verdict = Verdict(attempted=steps, failed=0)
    if job.exit_code != 0 or job.csv is None:
        verdict.miss(f"scan exit code {job.exit_code}: {job.stderr.strip()}", steps)
        return verdict
    header, *rows = job.csv.rstrip("\n").split("\n")
    columns = header.split(",")
    # The reference holds the columns that do not depend on the search seed,
    # so it applies to every seed; it was recorded for the 50-step scan.
    reference = REFERENCE["scan"]["rows"] if steps == len(REFERENCE["scan"]["rows"]) else None
    expected_rows = first.csv.rstrip("\n").split("\n")[1:] if first else None
    for index in range(steps):
        if index >= len(rows):
            verdict.miss(f"row {index} missing")
            continue
        row = dict(zip(columns, rows[index].split(",")))
        try:
            floor = float(row["min_residual"])
        except (KeyError, ValueError):
            floor = math.nan
        if row.get("verdict") != "positive":
            verdict.miss(f"row {index}: verdict {row.get('verdict')!r}")
        elif not floor >= FLOOR_MIN:
            verdict.miss(f"row {index}: search floor {floor!r} below {FLOOR_MIN}")
        elif reference is not None and ",".join(
                row.get(col, "") for col in REFERENCE["scan"]["columns"]) != reference[index]:
            verdict.miss(f"row {index}: verdict columns differ from the reference")
        elif expected_rows is not None and rows[index] != expected_rows[index]:
            verdict.miss(f"row {index}: differs from the first repeat")
    if len(rows) > steps:
        verdict.miss(f"{len(rows) - steps} unexpected extra rows")
    return verdict


# ---------------------------------------------------------------------------
# deep_check
# ---------------------------------------------------------------------------

def check_argv(seed: int, starts: int = 200, iterations: int = 500) -> list[str]:
    return ["check", "--theta", PI12, "--mode", "both", "--starts", str(starts),
            "--iterations", str(iterations), "--seed", str(seed)]


def gate_check(job: Job, first: Job | None) -> Verdict:
    """Exit code 0, the reference verdict, a search floor of at least 1e-6,
    and stdout identical to the run's first job."""
    verdict = Verdict(attempted=1, failed=0)
    text = _stdout(job)
    fields = dict(line.split(": ", 1) for _, line in job.lines if ": " in line)
    try:
        floor = float(text.rsplit("min residual = ", 1)[1].split()[0])
    except (IndexError, ValueError):
        floor = math.nan
    if job.exit_code != 0:
        verdict.miss(f"check exit code {job.exit_code}: {job.stderr.strip()}")
    elif fields.get("verdict") != REFERENCE["deep_check"]["verdict"]:
        verdict.miss(f"verdict {fields.get('verdict')!r}")
    elif not floor >= FLOOR_MIN:
        verdict.miss(f"search floor {floor!r} below {FLOOR_MIN}")
    elif first is not None and text != _stdout(first):
        verdict.miss("stdout differs from the first repeat")
    return verdict


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def selftest_argv() -> list[str]:
    # The suites fix their own seeds; the workload seed does not apply.
    return ["selftest"]


def suite_lines(job: Job) -> list[tuple[float, str, str]]:
    """(timestamp, suite name, line) for each PASS/FAIL line, in order."""
    out = []
    for stamp, line in job.lines:
        status, _, rest = line.partition(" ")
        if status in ("PASS", "FAIL") and ": " in rest:
            out.append((stamp, rest.split(": ", 1)[0], line))
    return out


def gate_selftest(job: Job, first: Job | None) -> Verdict:
    """Each of the recorded suites reports PASS, in the recorded order, with
    the same line as in the run's first job; the job exits 0."""
    names = REFERENCE["selftest"]["suites"]
    verdict = Verdict(attempted=len(names), failed=0)
    got = suite_lines(job)
    first_lines = [line for _, _, line in suite_lines(first)] if first else None
    for index, name in enumerate(names):
        if index >= len(got) or got[index][1] != name:
            verdict.miss(f"suite {name} missing or out of order")
        elif not got[index][2].startswith("PASS "):
            verdict.miss(got[index][2])
        elif first_lines is not None and got[index][2] != first_lines[index]:
            verdict.miss(f"suite {name}: line differs from the first repeat")
    if len(got) > len(names):
        verdict.miss(f"{len(got) - len(names)} unexpected suites")
    if job.exit_code != 0 and verdict.failed == 0:
        verdict.miss(f"selftest exit code {job.exit_code}: {job.stderr.strip()}")
    return verdict


@dataclass(frozen=True)
class Workload:
    default_seed: int
    argv: Callable[[int, str], list[str]]  # (seed, scan CSV path) -> argv
    warmup_argv: Callable[[int, str], list[str]]
    gate: Callable[[Job, Job | None], Verdict]  # (job, run's first timed job)
    warmup_gate: Callable[[Job], Verdict]


WORKLOADS = {
    "scan": Workload(
        default_seed=77,
        argv=scan_argv,
        warmup_argv=lambda seed, out: scan_argv(seed, out, steps=2),
        gate=gate_scan,
        warmup_gate=lambda job: gate_scan(job, None, steps=2),
    ),
    "deep_check": Workload(
        default_seed=0,
        argv=lambda seed, out: check_argv(seed),
        warmup_argv=lambda seed, out: check_argv(seed, iterations=10),
        gate=gate_check,
        warmup_gate=lambda job: gate_check(job, None),
    ),
    "selftest": Workload(
        default_seed=0,
        argv=lambda seed, out: selftest_argv(),
        warmup_argv=lambda seed, out: selftest_argv(),
        gate=gate_selftest,
        warmup_gate=lambda job: gate_selftest(job, None),
    ),
}
