import importlib
import json
import math
import os
import subprocess
import sys
import tomllib
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import biquot
from biquot import certify, checks, cli, embeddings, quat


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_positive_exit_zero(capsys):
    code, out, _ = run(capsys, ["check", "--theta", "0.2617993878"])
    assert code == 0
    assert "verdict: positive" in out
    assert "rho rank: 3" in out


def test_check_both_mode_runs_search(capsys):
    code, out, _ = run(capsys, [
        "check", "--theta", "0.2617993878", "--mode", "both",
        "--starts", "6", "--iterations", "80", "--seed", "3"])
    assert code == 0
    assert "min residual" in out


def test_check_negative_iterations_exit_one(capsys):
    code, out, err = run(capsys, ["check", "--theta", "0.26", "--mode", "both",
                                  "--iterations", "-5"])
    assert code == 1
    assert "iterations" in err
    assert "verdict" not in out


def test_check_negative_seed_exit_one(capsys):
    code, out, err = run(capsys, ["check", "--theta", "0.2", "--mode", "search",
                                  "--seed", "-1"])
    assert code == 1
    assert "seed" in err
    assert "verdict" not in out


def test_check_negative_seed_skips_algebra(capsys, monkeypatch):
    def no_work(theta):
        raise AssertionError("certify_theta ran before the seed was rejected")

    monkeypatch.setattr(certify, "certify_theta", no_work)
    code, out, err = run(capsys, ["check", "--theta", "0.2", "--mode", "both",
                                  "--seed", "-1"])
    assert code == 1
    assert "seed" in err
    assert out == ""


@pytest.mark.parametrize("flag, value, message", [
    ("--starts", "-5", "starts must be at least 1, got -5"),
    ("--iterations", "-2", "iterations must be non-negative, got -2"),
    ("--seed", "-1", "seed must be non-negative, got -1"),
], ids=["starts", "iterations", "seed"])
def test_check_algebraic_mode_rejects_a_negative_search_size(capsys, monkeypatch, flag, value,
                                                             message):
    def no_work(theta):
        raise AssertionError("certify_theta ran before the size was rejected")

    monkeypatch.setattr(certify, "certify_theta", no_work)
    code, out, err = run(capsys, ["check", "--theta", "0.3", flag, value])
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_check_inconclusive_exit_two(capsys):
    code, out, _ = run(capsys, ["check", "--theta", "1.0"])
    assert code == 2
    assert "verdict: inconclusive" in out


def _run_without_warnings(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run(capsys, argv)
    assert [str(w.message) for w in caught] == []
    return result


@pytest.mark.parametrize("theta", ["-1", "nan", "inf"])
def test_check_invalid_theta_exit_one(capsys, theta):
    code, out, err = _run_without_warnings(capsys, ["check", "--theta", theta])
    assert code == 1
    assert out == ""
    assert err == f"error: theta must lie in (0, pi/2), got {float(theta)!r}\n"


@pytest.mark.parametrize("lo,hi", [("nan", "0.2"), ("0.1", "inf")])
def test_scan_non_finite_range_exit_one(tmp_path, capsys, lo, hi):
    out = tmp_path / "bad.csv"
    code, stdout, err = _run_without_warnings(capsys, [
        "scan", "--from", lo, "--to", hi, "--steps", "2", "--starts", "1",
        "--iterations", "2", "--out", str(out)])
    assert code == 1
    assert stdout == ""
    assert err == ("error: scan range must satisfy 0 < from < to < pi/2, "
                   f"got from={float(lo)!r} to={float(hi)!r}\n")
    assert not out.exists()


def test_check_degrees_flag(capsys):
    code, out, _ = run(capsys, ["check", "--theta", "15", "--degrees"])
    assert code == 0
    assert f"theta = {format(math.radians(15), '.17g')}" in out


def test_check_json_mirrors_certificate(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, _, _ = run(capsys, [
        "check", "--theta", "0.2617993878", "--mode", "search",
        "--starts", "4", "--iterations", "60", "--json", str(path)])
    assert code == 0
    payload = json.loads(path.read_text())
    expected_keys = {"theta", "rho_rank", "kernel_dim_j", "kernel_dim_k",
                     "kernel_match_j", "kernel_match_k", "sign_ok",
                     "lambda_case_note", "verdict", "search"}
    assert set(payload) == expected_keys
    assert payload["verdict"] == "positive"
    assert payload["search"]["starts"] == 4


def test_check_json_reports_search_diagnostics(tmp_path, capsys):
    path = tmp_path / "search.json"
    for iterations in (0, 3, 200):
        code, out, _ = run(capsys, [
            "check", "--theta", "0.2617993878", "--mode", "both", "--starts", "5",
            "--iterations", str(iterations), "--seed", "2", "--json", str(path)])
        assert code == 0
        search = json.loads(path.read_text())["search"]
        assert set(search) == {"starts", "iterations", "min_residual", "iterations_used",
                               "converged", "stalled", "grad_norm"}
        # the file's key order is part of its bytes
        assert list(search) == ["starts", "iterations", "min_residual", "iterations_used",
                                "converged", "stalled", "grad_norm"]
        assert "argmin_pair" not in search
        report = certify.search_zero_plane(0.2617993878, starts=5, iterations=iterations,
                                           seed=2)
        assert search == {
            "starts": 5, "iterations": iterations, "min_residual": report.min_residual,
            "iterations_used": report.iterations_used, "converged": report.converged,
            "stalled": report.stalled, "grad_norm": report.grad_norm}
        assert f"min residual = {format(report.min_residual, '.17g')}" in out
        assert search["iterations_used"] <= iterations
        assert search["converged"] + search["stalled"] <= 5
    # every start converges well inside the cap at this angle
    assert search["converged"] == 5 and search["iterations_used"] < 200
    assert search["grad_norm"] <= certify.GRAD_TOL
    code, _, _ = run(capsys, ["check", "--theta", "0.2617993878", "--mode", "algebraic",
                              "--json", str(path)])
    assert code == 0
    assert path.read_text().endswith('  "search": null\n}\n')


def test_check_degenerate_horizontal_space_exits_one(monkeypatch, capsys):
    real = certify.horizontal_basis
    monkeypatch.setattr(certify, "horizontal_basis", lambda points: real(points)[..., 1:])
    code, out, err = run(capsys, ["check", "--theta", "0.2617993878", "--mode", "both",
                                  "--starts", "2", "--iterations", "5"])
    assert code == 1
    assert out == ""
    assert err == "error: degenerate horizontal space of dimension 14, expected 15\n"


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(biquot.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    probe = "import sys, biquot.cli; print('scipy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout.strip() == "False"


def test_missing_subcommand_exit_one(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_scan_rows_and_determinism(tmp_path, capsys):
    args = ["scan", "--from", "0.05", "--to", "0.5", "--steps", "10",
            "--seed", "9", "--starts", "3", "--iterations", "40"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert cli.main(args + ["--out", str(first)]) == 0
    assert cli.main(args + ["--out", str(second)]) == 0
    capsys.readouterr()

    text = first.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == cli.CSV_HEADER
    assert len(lines) == 11
    for line in lines[1:]:
        fields = line.split(",")
        theta = float(fields[0])
        verdict = fields[-1]
        assert verdict == ("positive" if theta < np.pi / 6.0 else "inconclusive")
    assert first.read_bytes() == second.read_bytes()


def test_scan_batched_rows_match_per_angle_search(tmp_path, capsys):
    seed, starts, iterations = 2, 2, 30
    thetas = np.linspace(0.1, 0.3, 4)
    path = tmp_path / "scan.csv"
    assert cli.main(["scan", "--from", "0.1", "--to", "0.3", "--steps", "4",
                     "--seed", str(seed), "--starts", str(starts),
                     "--iterations", str(iterations), "--out", str(path)]) == 0
    capsys.readouterr()
    header, *rows = path.read_text().strip().split("\n")
    assert header == cli.CSV_HEADER
    assert len(rows) == len(thetas)
    for row, (line, theta) in enumerate(zip(rows, thetas)):
        cert = certify.certify_theta(float(theta))
        report = certify.search_zero_plane(float(theta), starts=starts,
                                           iterations=iterations,
                                           seed=seed + 100003 * row)
        *verdict_columns, min_residual, verdict = line.split(",")
        assert verdict_columns + [verdict] == [
            format(float(theta), ".17g"), str(cert.rho_rank), str(cert.kernel_dim_j),
            str(cert.kernel_dim_k), format(cert.kernel_match_j, ".17g"),
            format(cert.kernel_match_k, ".17g"), "true" if cert.sign_ok else "false",
            cert.verdict]
        assert float(min_residual) == pytest.approx(report.min_residual, rel=1e-9)


def test_scan_negative_iterations_exit_one(tmp_path, capsys):
    out = tmp_path / "neg.csv"
    code, _, err = run(capsys, ["scan", "--from", "0.1", "--to", "0.2", "--steps", "2",
                                "--starts", "1", "--iterations", "-1", "--out", str(out)])
    assert code == 1
    assert "iterations" in err
    assert not out.exists()


def test_scan_negative_seed_exit_one(tmp_path, capsys, monkeypatch):
    def no_work(theta):
        raise AssertionError("certify_theta ran before the seed was rejected")

    monkeypatch.setattr(certify, "certify_theta", no_work)
    out = tmp_path / "neg-seed.csv"
    code, _, err = run(capsys, ["scan", "--from", "0.1", "--to", "0.2", "--steps", "3",
                                "--starts", "1", "--iterations", "5", "--seed", "-5",
                                "--out", str(out)])
    assert code == 1
    assert "seed" in err
    assert not out.exists()


def test_scan_checks_sizes_before_building_the_grid(tmp_path, capsys, monkeypatch):
    def no_grid(*args, **kwargs):
        raise AssertionError("the angle grid was built before --starts was checked")

    monkeypatch.setattr(certify.np, "linspace", no_grid)
    out = tmp_path / "huge.csv"
    code, _, err = run(capsys, ["scan", "--from", "0.1", "--to", "0.2",
                                "--steps", "100000000000", "--starts", "0", "--out", str(out)])
    assert code == 1
    assert "error: starts must be at least 1, got 0" in err
    assert not out.exists()


def test_scan_reports_memory_error(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array")

    monkeypatch.setattr(certify, "_search_rows", exhausted)
    out = tmp_path / "oom.csv"
    code, _, err = run(capsys, ["scan", "--from", "0.1", "--to", "0.2", "--steps", "2",
                                "--starts", "1", "--iterations", "5", "--out", str(out)])
    assert code == 1
    assert err == "error: Unable to allocate 745. GiB for an array\n"
    assert not out.exists()


def test_scan_computes_each_point_once(tmp_path, capsys, monkeypatch):
    computed, ranked = [], []

    def counted(theta):
        computed.append(np.atleast_1d(theta).tolist())
        return embeddings.point_p(theta)

    def counted_rank(points):
        ranked.append(np.shape(points))
        return embeddings.rho_rank(points)

    monkeypatch.setattr(certify, "point_p", counted)
    monkeypatch.setattr(certify, "rho_rank", counted_rank)
    out = tmp_path / "points.csv"
    code, _, _ = run(capsys, ["scan", "--from", "0.05", "--to", "0.5", "--steps", "50",
                              "--starts", "1", "--iterations", "2", "--out", str(out)])
    assert code == 0
    # one batched call each, over 50 distinct angles
    assert len(computed) == 1 and len(computed[0]) == len(set(computed[0])) == 50
    assert ranked == [(50, 3, 3, 4)]
    # nothing outlives the scan: a certificate then computes its own point
    theta = float(out.read_text().splitlines()[8].split(",")[0])
    certify.certify_theta(theta)
    assert computed[1:] == [[theta]]


def test_scan_invalid_range_exit_one(tmp_path, capsys):
    code, _, err = run(capsys, ["scan", "--from", "0.5", "--to", "0.05",
                                "--steps", "5", "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "error:" in err


def test_scan_unwritable_path_exit_one(capsys):
    code, _, err = run(capsys, ["scan", "--from", "0.1", "--to", "0.2",
                                "--steps", "2", "--starts", "1",
                                "--iterations", "5",
                                "--out", "/nonexistent-dir/out.csv"])
    assert code == 1
    assert "error:" in err


OUTPUT_COMMANDS = {
    "scan": (["scan", "--from", "0.1", "--to", "0.2", "--steps", "2", "--starts", "1",
              "--iterations", "5"], "--out"),
    "check": (["check", "--theta", "0.2", "--mode", "both", "--starts", "1",
               "--iterations", "5"], "--json"),
}


@pytest.mark.parametrize("command,target", [
    ("scan", "missing"), ("check", "missing"), ("scan", "directory"), ("check", "directory"),
    ("scan", "empty"), ("check", "empty"),
], ids=["scan", "check", "scan-dir", "check-dir", "scan-empty", "check-empty"])
def test_missing_output_directory_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                        command, target):
    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the output path was rejected")

    for name in ("search_zero_plane", "scan", "certify_theta", "point_p"):
        monkeypatch.setattr(certify, name, no_work)
    argv, flag = OUTPUT_COMMANDS[command]
    missing = tmp_path / "missing"
    path, message = {
        "missing": (str(missing / "report"), str(missing)),
        "directory": (str(tmp_path), f"{str(tmp_path)!r} is a directory"),
        "empty": ("", "error: output path is empty"),
    }[target]
    code, out, err = run(capsys, argv + [flag, path])
    assert code == 1
    assert out == ""
    assert message in err
    assert not missing.exists()


def test_selftest_passes_and_is_reproducible(capsys):
    first_code, first_out, _ = run(capsys, ["selftest"])
    second_code, second_out, _ = run(capsys, ["selftest"])
    assert first_code == 0 and second_code == 0
    assert first_out == second_out
    assert "all suites passed" in first_out
    assert "vw-identity-sign-convention" in first_out
    assert "plus-sin" in first_out
    assert "positivity-floors" in first_out
    assert first_out.count("FAIL") == 0


@pytest.mark.parametrize("suite", checks.SELFTEST_SUITES,
                         ids=lambda suite: suite.__name__.removeprefix("_suite_"))
def test_selftest_suite_traced_peak_is_at_most_3_mb(suite):
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        suite()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()
    assert peak <= 3e6, f"traced peak {peak / 1e6:.2f} MB"


def test_selftest_detects_injected_sign_flip(capsys, monkeypatch):
    true_phi3 = embeddings.phi3_alg

    # negating the whole off-diagonal block would just conjugate the image,
    # so flip only its k component to genuinely break the bracket relations
    def flipped(t):
        out = np.array(true_phi3(t), copy=True)
        out[..., 0, 1, 3] *= -1.0
        out[..., 1, 0, 3] *= -1.0
        return out

    monkeypatch.setattr("biquot.embeddings.phi3_alg", flipped)
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    assert "FAIL phi3-homomorphism" in out
    assert "FAILED: phi3-homomorphism" in out


@pytest.mark.parametrize("target,fault,suite", [
    ("biquot.certify.sign_certificate", lambda theta: False, "sign-certificate"),
    ("biquot.certify.kernel_solutions",
     lambda theta, ell, real=certify.kernel_solutions: (
         np.full(np.shape(theta), 2), real(theta, ell)[1]),
     "kernel-two-path"),
    ("biquot.embeddings.rho_rank", lambda points: np.full(len(points), 2),
     "display-reproduction"),
], ids=["sign_certificate", "kernel_solutions", "rho_rank"])
def test_selftest_fails_when_a_function_of_the_verdict_fails(capsys, monkeypatch,
                                                            target, fault, suite):
    # each function here decides `certify_theta`'s verdict, and one suite runs it
    monkeypatch.setattr(target, fault)
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    assert f"FAIL {suite}: " in out
    assert out.splitlines()[-1] == f"FAILED: {suite}"


def test_selftest_fails_the_floors_on_a_subspace_with_a_commuting_pair(capsys, monkeypatch):
    # coordinates 0 and 3 are the i-parts of two diagonal entries, so they commute
    monkeypatch.setattr("biquot.certify.p_subspace_basis",
                        lambda: np.eye(21)[:, [0, 3, 13, 14, 15]])
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    assert "FAIL positivity-floors" in out
    assert out.splitlines()[-1] == "FAILED: positivity-floors"


def test_selftest_fails_the_floors_on_a_raised_dual_point(capsys, monkeypatch):
    # b above the least eigenvalue leaves S indefinite, so nothing is certified
    raised = checks._P_DUAL.copy()
    raised[0] += 1e-3
    monkeypatch.setattr(checks, "_P_DUAL", raised)
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    assert "FAIL positivity-floors" in out
    assert out.splitlines()[-1] == "FAILED: positivity-floors"


def test_selftest_fails_the_floors_on_a_witness_of_the_wrong_shape(capsys, monkeypatch):
    # a witness that is not a pair in the subspace has value NaN, which fails
    monkeypatch.setattr(checks, "_P_WITNESS", checks._P_WITNESS[:-1])
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    assert "FAIL positivity-floors" in out
    assert "p summand 0.500000000 and nan" in out
    assert out.splitlines()[-1] == "FAILED: positivity-floors"


def test_selftest_runs_no_bracket_solver(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("selftest ran a bracket solver")

    monkeypatch.setattr(certify, "plucker_bound", refuse)
    monkeypatch.setattr(certify, "_newton_search", refuse)
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    lines = out.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 12
    assert lines[-1] == "all suites passed"


def test_selftest_fails_a_nan_defect(capsys, monkeypatch):
    closed_form = embeddings.adp_h1_closed_form
    monkeypatch.setattr("biquot.embeddings.adp_h1_closed_form",
                        lambda theta, t: np.full_like(closed_form(theta, t), np.nan))
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    assert "FAIL display-reproduction: max entrywise defect nan" in out


def test_selftest_reports_every_failed_suite(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_SELFTEST_SUITES", (
        lambda: ("first", False, "injected"),
        lambda: ("second", True, "fine"),
        lambda: ("third", False, "injected"),
    ))
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    assert out.splitlines() == ["FAIL first: injected", "PASS second: fine",
                                "FAIL third: injected", "FAILED: first, third"]


def test_selftest_runs_without_the_scalar_quaternion(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a library path used the scalar Quaternion")

    monkeypatch.setattr(quat.Quaternion, "__mul__", refuse)
    monkeypatch.setattr(quat.Quaternion, "__post_init__", refuse)
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    lines = out.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 12
    assert lines[-1] == "all suites passed"


def test_selftest_json_mirrors_the_stdout_lines(capsys, tmp_path):
    path = tmp_path / "selftest.json"
    code, out, err = run(capsys, ["selftest", "--json", str(path)])
    assert code == 0 and err == ""
    _, plain, _ = run(capsys, ["selftest"])
    assert out == plain
    report = json.loads(path.read_text())
    assert report["ok"] is True
    lines = out.splitlines()
    assert [f"{'PASS' if suite['ok'] else 'FAIL'} {suite['name']}: {suite['detail']}"
            for suite in report["suites"]] == lines[:-1]
    assert len(report["suites"]) == len(checks.SELFTEST_SUITES)
    assert all(isinstance(suite["seconds"], float) and suite["seconds"] >= 0.0
               for suite in report["suites"])


def test_selftest_json_records_failed_suites(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_SELFTEST_SUITES", (
        lambda: ("first", np.False_, "injected"),
        lambda: ("second", True, "fine"),
    ))
    path = tmp_path / "selftest.json"
    code, out, _ = run(capsys, ["selftest", "--json", str(path)])
    assert code == 1
    assert out.splitlines()[-1] == "FAILED: first"
    report = json.loads(path.read_text())
    assert report["ok"] is False
    assert [(suite["name"], suite["ok"], suite["detail"]) for suite in report["suites"]] == [
        ("first", False, "injected"), ("second", True, "fine")]


@pytest.mark.parametrize("where", ["empty", "missing-directory", "directory"])
def test_selftest_json_bad_path_exits_one_before_any_suite(capsys, monkeypatch, tmp_path, where):
    ran = []
    monkeypatch.setattr(cli, "_SELFTEST_SUITES", (lambda: ran.append(1) or ("x", True, ""),))
    path = {"empty": "", "missing-directory": str(tmp_path / "missing" / "out.json"),
            "directory": str(tmp_path)}[where]
    code, out, err = run(capsys, ["selftest", "--json", path])
    assert code == 1
    assert out == "" and ran == []
    assert err.startswith("error: output ")
    assert not (tmp_path / "missing").exists()


def test_selftest_suites_run_in_the_benchmark_order(capsys):
    reference = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
    expected = json.loads(reference.read_text())["selftest"]["suites"]
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    names = [line.split(": ", 1)[0].removeprefix("PASS ")
             for line in out.splitlines() if line.startswith("PASS ")]
    assert names == expected


def test_selftest_names_an_ill_conditioned_kernel(capsys, monkeypatch):
    real = certify.build_linear_system

    # rows 4 and 5 zeroed at one angle of the suite's grid: rank 4, no gap
    def degenerate(theta, ell):
        systems = real(theta, ell)
        if np.ndim(theta):
            systems[500, 4:] = 0.0
        return systems

    monkeypatch.setattr(certify, "build_linear_system", degenerate)
    code, out, _ = run(capsys, ["selftest"])
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == len(checks.SELFTEST_SUITES) + 1
    assert [line.split(" ", 1)[0] for line in lines[:-1]].count("PASS") == len(lines) - 2
    assert "FAIL kernel-two-path: dimension 1 on 1000-point grid: False" in out
    # the worst match is taken over the 999 angles that keep a kernel
    (line,) = [line for line in lines if line.startswith("FAIL kernel-two-path")]
    worst = float(line.rsplit("min |cosine| ", 1)[1])
    assert math.isfinite(worst) and worst >= certify.KERNEL_MATCH_MIN
    assert lines[-2].startswith("PASS positivity-floors")
    assert lines[-1] == "FAILED: kernel-two-path"


def test_console_script_is_cli_main():
    # `pip install .` makes `biquot` call the object pyproject.toml names
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["biquot"]
    module, _, attribute = target.partition(":")
    assert getattr(importlib.import_module(module), attribute) is cli.main
