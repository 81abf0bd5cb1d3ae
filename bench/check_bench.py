"""The benchmark's own tests.

    python3 -m pytest -q bench/check_bench.py

The file name keeps these tests out of the repository's tier-1 collection;
pytest collects a file named on its command line whatever its name.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import biquot.cli  # noqa: E402
from metrics import END_TO_END, PER_LAYER, per_layer_values  # noqa: E402
from tracer import Tracer, package_modules, public_functions  # noqa: E402
from workloads import (  # noqa: E402
    REFERENCE, Job, WORKLOADS, gate_check, gate_scan, gate_selftest,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _bindings() -> dict[tuple[str, str], object]:
    out = {(module.__name__, attr): obj
           for module in package_modules() for attr, obj in vars(module).items()}
    out[("biquot.quat.Quaternion", "__mul__")] = biquot.quat.Quaternion.__mul__
    return out


def _job(lines: list[str], code: int = 0, csv: str | None = None) -> Job:
    return Job(exit_code=code, wall_s=1.0, cpu_s=1.0,
               lines=[(float(i), line) for i, line in enumerate(lines)], csv=csv)


def _scan_csv(verdict_at: int | None = None, floor: str = "0.05") -> str:
    rows = []
    for index, ref in enumerate(REFERENCE["scan"]["rows"]):
        theta, rank, dim_j, dim_k, sign_ok, verdict = ref.split(",")
        if index == verdict_at:
            verdict = "inconclusive"
        rows.append(",".join([theta, rank, dim_j, dim_k, "1", "1", sign_ok, floor, verdict]))
    return "\n".join([biquot.cli.CSV_HEADER] + rows) + "\n"


def _selftest_lines(fail: str | None = None) -> list[str]:
    return [f"{'FAIL' if name == fail else 'PASS'} {name}: detail"
            for name in REFERENCE["selftest"]["suites"]] + ["all suites passed"]


def test_metric_names_and_caps_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert len(END_TO_END) <= 16 and len(PER_LAYER) <= 128
    for name, unit in {**END_TO_END, **PER_LAYER}.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), unit
    assert any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"])


def test_traced_job_catches_from_imported_calls_and_restores_bindings():
    before = _bindings()
    argv = ["check", "--theta", "0.26", "--mode", "both",
            "--starts", "2", "--iterations", "3", "--seed", "0"]
    with contextlib.redirect_stdout(io.StringIO()), Tracer() as tracer:
        assert biquot.certify.point_p is not before[("biquot.certify", "point_p")]
        assert biquot.cli.main(argv) == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    layers = tracer.layers()
    # certify binds point_p by from-import; its calls must be seen.
    assert layers["embeddings.point_p"].calls >= 2
    assert layers["certify.search_zero_plane"].calls == 1
    assert layers["certify.search_zero_plane"].work == 2 * 3
    assert layers["cli.main"].calls == 1
    spans = tracer.spans
    roots = [s for s in spans if s[1] == -1]
    assert [s[0] for s in roots] == ["cli.main"]
    total_self = sum(stats.self_s for stats in layers.values())
    assert abs(total_self - (roots[0][3] - roots[0][2])) < 1e-9
    values = per_layer_values(layers, {}, 0.0)
    assert set(values) == set(PER_LAYER)


def test_no_registry_hides_a_traced_function():
    # A function stored in a module-level container would escape rebinding.
    targets = {id(func) for func in public_functions().values()}

    def contained(obj, depth=0):
        if isinstance(obj, (tuple, list, set, frozenset)):
            return any(contained(item, depth + 1) for item in obj) if depth < 3 else False
        if isinstance(obj, dict):
            return contained(tuple(obj.values()), depth)
        return id(obj) in targets

    for module in package_modules():
        for attr, obj in vars(module).items():
            if not isinstance(obj, (types.FunctionType, type, types.ModuleType)):
                assert not contained(obj), f"{module.__name__}.{attr}"


def test_scan_gate_counts_every_miss():
    good = _job([], csv=_scan_csv())
    assert gate_scan(good, None).failed == 0
    assert gate_scan(good, good).failed == 0
    assert gate_scan(_job([], csv=_scan_csv(verdict_at=7)), None).failed == 1
    assert gate_scan(_job([], csv=_scan_csv(floor="1e-7")), None).failed == 50
    drifted = _job([], csv=_scan_csv(floor="0.0500001"))
    assert gate_scan(drifted, good).failed == 50
    assert gate_scan(_job([], code=1), None).failed == 50


def test_check_gate_counts_every_miss():
    lines = ["search: starts=200 iterations=500 min residual = 0.0898",
             "verdict: positive"]
    good = _job(lines)
    assert gate_check(good, good).failed == 0
    assert gate_check(_job(lines[:1] + ["verdict: inconclusive"]), None).failed == 1
    assert gate_check(_job(["search: min residual = 1e-9", lines[1]]), None).failed == 1
    assert gate_check(_job(["search: min residual = 0.09", lines[1]]), good).failed == 1
    assert gate_check(_job(lines, code=2), None).failed == 1


def test_selftest_gate_counts_every_miss():
    good = _job(_selftest_lines())
    assert gate_selftest(good, good).failed == 0
    assert gate_selftest(_job(_selftest_lines(fail="kernel-two-path"), code=1),
                         None).failed == 1
    assert gate_selftest(_job(_selftest_lines()[1:]), None).failed == 12
    assert gate_selftest(_job(["FAILED: x"], code=1), None).failed == 12


def test_injected_wrong_verdict_and_fail_line_raise_failed_frac(monkeypatch, tmp_path):
    from worker import run_job

    out = tmp_path / "scan.csv"
    scan = WORKLOADS["scan"]
    assert scan.warmup_gate(run_job(scan.warmup_argv(77, str(out)), out)).failed == 0
    monkeypatch.setattr(biquot.certify, "sign_certificate", lambda theta: False)
    verdict = scan.warmup_gate(run_job(scan.warmup_argv(77, str(out)), out))
    assert verdict.failed == verdict.attempted == 2

    monkeypatch.setattr(biquot.cli, "_SELFTEST_SUITES",
                        (lambda: ("quaternion-algebra", False, "injected"),))
    selftest = WORKLOADS["selftest"]
    verdict = selftest.gate(run_job(selftest.argv(0, ""), None), None)
    assert verdict.failed > 0
    assert "FAIL quaternion-algebra: injected" in verdict.reasons
