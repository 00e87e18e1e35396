"""Tests for the command-line front end and its artifact contract."""

import json
import subprocess
from fractions import Fraction

import numpy as np
import sys

import pytest

from rotorzeros.cli import ConfigError, RunConfig, main, run
from rotorzeros.zeros import INCONCLUSIVE, VERIFIED, VIOLATED

SPHERE_JSON = {"kind": "sphere", "radius": 1.0}


def make_config(tmp_path, **overrides):
    data = {
        "command": "verify",
        "measure": SPHERE_JSON,
        "N": [2],
        "D": [2],
        "J": [0.5],
        "degreeLadder": [20, 30],
        "outputDir": str(tmp_path / "out"),
        "seed": 7,
    }
    data.update(overrides)
    return data


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = RunConfig.from_dict(make_config(tmp_path))
        assert cfg.command == "verify" and cfg.Ns == (2,)

    def test_unknown_command_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(make_config(tmp_path, command="frobnicate"))

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(make_config(tmp_path, N=[]))

    def test_decreasing_ladder_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            RunConfig.from_dict(make_config(tmp_path, degreeLadder=[40, 30]))

    def test_rational_backend_parses_exact_scalars(self, tmp_path):
        sphere = {"kind": "sphere", "radius": 0.2}
        cfg = RunConfig.from_dict(
            make_config(tmp_path, backend="rational", J=[0.2, 1.0], measure=sphere)
        )
        assert cfg.Js == (Fraction(1, 5), Fraction(1))
        assert cfg.measure.radius == Fraction(1, 5)
        assert cfg.measure.label == "sphere(r=0.2)"

    def test_hash_stability(self, tmp_path):
        a = RunConfig.from_dict(make_config(tmp_path)).config_hash()
        b = RunConfig.from_dict(make_config(tmp_path)).config_hash()
        c = RunConfig.from_dict(make_config(tmp_path, seed=8)).config_hash()
        assert a == b and a != c


class TestRun:
    def test_verify_writes_artifacts_and_passes(self, tmp_path):
        cfg = RunConfig.from_dict(make_config(tmp_path, N=[2, 3]))
        status = run(cfg)
        assert status == 0
        out = tmp_path / "out"
        assert (out / "zeros_2_2_0.5.csv").exists()
        assert (out / "zeros_2_2_0.5.csv.meta.json").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["schema"] == 1
        assert all(v["overall"] == "LeeYangVerified" for v in report["verdicts"])
        assert all(v["scope"] == "theorem" for v in report["verdicts"])

    def test_sidecar_carries_config_hash(self, tmp_path):
        cfg = RunConfig.from_dict(make_config(tmp_path))
        run(cfg)
        sidecar = json.loads(
            (tmp_path / "out" / "zeros_2_2_0.5.csv.meta.json").read_text()
        )
        assert sidecar["config_hash"] == cfg.config_hash()

    def test_odd_dimension_labeled_outside_guarantee(self, tmp_path):
        cfg = RunConfig.from_dict(
            make_config(tmp_path, command="sweep", D=[3], degreeLadder=[20, 30])
        )
        status = run(cfg)
        assert status == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert all(
            v["scope"] == "outside theorem guarantee" for v in report["verdicts"]
        )

    def test_phi_artifacts(self, tmp_path):
        cfg = RunConfig.from_dict(make_config(tmp_path, command="phi", N=[1, 2]))
        assert run(cfg) == 0
        lines = (tmp_path / "out" / "phi_2_2_0.5.csv").read_text().splitlines()
        assert lines[0] == "n,a_n"
        values = [float(ln.split(",")[1]) for ln in lines[1:]]  # plain parseable floats
        assert values[0] > 0
        sidecar = json.loads(
            (tmp_path / "out" / "phi_2_2_0.5.csv.meta.json").read_text()
        )
        assert sidecar["N"] == 2 and sidecar["stable_through"] >= 10

    def test_oracle_compare(self, tmp_path):
        # D=4 exercises the Monte Carlo column path as well
        cfg = RunConfig.from_dict(
            make_config(tmp_path, command="oracle-compare", N=[2], D=[2, 4], y=[0.5, 1.0])
        )
        assert run(cfg) == 0
        rows = (tmp_path / "out" / "oracle_compare.csv").read_text().strip().splitlines()
        assert len(rows) == 5
        rels = [float(r.split(",")[7]) for r in rows[1:]]
        assert all(rel < 1e-2 for rel in rels)
        circle = [float(r.split(",")[7]) for r in rows[1:] if "angular" in r]
        assert all(rel < 1e-6 for rel in circle)

    def test_geometry_selftest(self, tmp_path):
        cfg = RunConfig.from_dict(make_config(tmp_path, command="geometry-selftest"))
        assert run(cfg) == 0
        data = json.loads((tmp_path / "out" / "geometry_selftest.json").read_text())
        assert data["overall_pass"] is True

    def test_oracle_flag_attaches_comparison(self, tmp_path):
        cfg = RunConfig.from_dict(
            make_config(tmp_path, oracle=True, N=[2], y=[1.0], degreeLadder=[30, 40])
        )
        assert run(cfg) == 0
        assert (tmp_path / "out" / "oracle_compare.csv").exists()

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial = RunConfig.from_dict(
            make_config(tmp_path, N=[2, 3], outputDir=str(tmp_path / "s"))
        )
        parallel = RunConfig.from_dict(
            make_config(tmp_path, N=[2, 3], jobs=2, outputDir=str(tmp_path / "p"))
        )
        run(serial)
        run(parallel)
        a = (tmp_path / "s" / "zeros_3_2_0.5.csv").read_bytes()
        b = (tmp_path / "p" / "zeros_3_2_0.5.csv").read_bytes()
        assert a == b

    def test_counterexample_scan_command(self, tmp_path):
        cfg = RunConfig.from_dict(
            make_config(tmp_path, command="counterexample-scan", degreeLadder=[40, 60])
        )
        assert run(cfg) == 0
        body = (tmp_path / "out" / "counterexample_scan.csv").read_text()
        assert "LeeYangViolated" in body

    def test_counterexample_scan_honours_tolerances(self, tmp_path):
        # a zero drift tolerance admits no stable root, so no violation
        # witness can fire and the scan must exit 1
        cfg = RunConfig.from_dict(
            make_config(
                tmp_path,
                command="counterexample-scan",
                degreeLadder=[12, 16],
                tolerances={"drift": 0},
            )
        )
        assert run(cfg) == 1
        rows = (tmp_path / "out" / "counterexample_scan.csv").read_text().splitlines()[1:]
        assert len(rows) == 41
        for row in rows:
            _a, overall, n_off_axis, _re, _im = row.split(",")
            assert overall == INCONCLUSIVE and n_off_axis == "0"

    def test_counterexample_scan_rejects_one_rung_ladder(self, tmp_path):
        # one rung gives no drift check; the scan must not swap in another ladder
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(make_config(tmp_path, command="counterexample-scan", degreeLadder=[30]))
        )
        assert main(["--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_oracle_compare_needs_sphere(self, tmp_path):
        density = {"kind": "density", "f": [1.0], "g": [0.0, 0.0, 1.0]}
        cfg = RunConfig.from_dict(
            make_config(tmp_path, command="oracle-compare", measure=density)
        )
        assert run(cfg) == 2

    def test_numeric_failure_lands_in_report(self, tmp_path):
        # D=1 tabulated moments are singular: recorded, not crashed
        grid = [[0.05 * k, float(np.exp(-((0.05 * k) ** 2)))] for k in range(200)]
        cfg = RunConfig.from_dict(
            make_config(
                tmp_path,
                command="laplace",
                measure={"kind": "tabulated", "samples": grid},
                D=[1],
            )
        )
        assert run(cfg) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert any("numeric failure" in e for e in report["errors"])

    def test_underflow_wall_exits_3(self, tmp_path):
        # D=2 sphere coefficients underflow to 0.0 past n ~ 88, so the
        # companion matrix of the degree-120 rung is not finite
        cfg = RunConfig.from_dict(make_config(tmp_path, N=[1], degreeLadder=[100, 120]))
        assert run(cfg) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdicts"] == []
        assert report["errors"] and report["exit_status"] == 3

    def test_determinism_byte_identical_csv(self, tmp_path):
        cfg1 = RunConfig.from_dict(
            make_config(tmp_path, outputDir=str(tmp_path / "a"))
        )
        cfg2 = RunConfig.from_dict(
            make_config(tmp_path, outputDir=str(tmp_path / "b"))
        )
        run(cfg1)
        run(cfg2)
        a = (tmp_path / "a" / "zeros_2_2_0.5.csv").read_bytes()
        b = (tmp_path / "b" / "zeros_2_2_0.5.csv").read_bytes()
        assert a == b


class TestMainEntry:
    def test_malformed_config_raises_status_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--config", str(bad)]) == 2

    def test_missing_command_status_2(self):
        assert main([]) == 2

    def test_command_line_verify(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path)))
        assert main(["--config", str(cfg_path)]) == 0

    def test_subprocess_invocation(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path)))
        proc = subprocess.run(
            [sys.executable, "-m", "rotorzeros", "--config", str(cfg_path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0

    def test_rational_backend_verify(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(make_config(tmp_path, N=[2, 3], J=[0.5], degreeLadder=[8, 10]))
        )
        assert main(["verify", "--config", str(cfg_path), "--backend", "rational"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["errors"] == []
        assert [(v["N"], v["J"]) for v in report["verdicts"]] == [(2, 0.5), (3, 0.5)]
        assert {v["overall"] for v in report["verdicts"]} <= {VERIFIED, VIOLATED, INCONCLUSIVE}

    def test_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path)))
        out2 = tmp_path / "override"
        assert main(["--config", str(cfg_path), "--out", str(out2), "--seed", "3"]) == 0
        assert (out2 / "report.json").exists()
