import json
import math

import numpy as np
import pytest

from biquot import certify, cli


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


def test_check_inconclusive_exit_two(capsys):
    code, out, _ = run(capsys, ["check", "--theta", "1.0"])
    assert code == 2
    assert "verdict: inconclusive" in out


def test_check_invalid_theta_exit_one(capsys):
    code, _, err = run(capsys, ["check", "--theta", "-1"])
    assert code == 1
    assert "error:" in err


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


def test_selftest_detects_injected_sign_flip(capsys, monkeypatch):
    import biquot.embeddings as embeddings

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
