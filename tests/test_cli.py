"""Tests for the command-line front end and its artifact contract."""

import ctypes
import hashlib
import importlib
import inspect
import json
import os
import re
import subprocess
import tomllib
from fractions import Fraction

import numpy as np
import sys
from pathlib import Path

import pytest

import rotorzeros
from rotorzeros import cli, polys, zeros
from rotorzeros.cli import ConfigError, RunConfig, main, run
from rotorzeros.measures import RadialMeasure, laplace_transform
from rotorzeros.recursion import phi_chain
from rotorzeros.zeros import INCONCLUSIVE, VERIFIED, VIOLATED

SPHERE_JSON = {"kind": "sphere", "radius": 1.0}
# sha256 of counterexample_scan.csv at ladder (40, 60), default tolerances
SCAN_CSV_SHA256 = "bcf6dc4b07e0d8892a4ecec0a62ae5452999e29ba3b88be8329e291e3d614634"


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

    def test_defaults_are_the_dataclass_defaults(self):
        assert RunConfig.from_dict({"command": "verify"}) == RunConfig("verify", RadialMeasure.sphere(1.0))

    def test_sweep_defaults_to_one_worker_per_cpu(self):
        # the library and the command line read the same default
        assert RunConfig.from_dict({"command": "sweep"}).jobs == (os.cpu_count() or 1)
        assert RunConfig.from_dict({"command": "sweep", "jobs": 1}).jobs == 1
        assert RunConfig.from_dict({"command": "verify"}).jobs == 1

    def test_removed_routes_rejected(self, tmp_path):
        # oracle_compare.csv has one route, the oracle-compare command
        with pytest.raises(ConfigError):
            RunConfig.from_dict(make_config(tmp_path, command="zeros"))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--oracle"])
        assert exc.value.code == 2

    def test_hash_stability(self, tmp_path):
        a = RunConfig.from_dict(make_config(tmp_path)).config_hash()
        b = RunConfig.from_dict(make_config(tmp_path)).config_hash()
        c = RunConfig.from_dict(make_config(tmp_path, seed=8)).config_hash()
        assert a == b and a != c

    def test_scan_hash_ignores_the_keys_it_never_reads(self, tmp_path):
        def scan_hash(**overrides):
            data = make_config(tmp_path, command="counterexample-scan", D=[1], degreeLadder=[12, 16])
            return RunConfig.from_dict({**data, **overrides}).config_hash()

        # the scan reads neither N, J, y, seed nor the measure, so it needs no N or J
        assert scan_hash(N=[2]) == scan_hash(N=[3]) == scan_hash(N=[], J=[], seed=8)
        assert scan_hash(N=[2]) != scan_hash(degreeLadder=[12, 20])
        assert scan_hash() != scan_hash(tolerances={"drift": 1e-7})

    @pytest.mark.parametrize(
        "overrides", [{"N": [0]}, {"J": [float("nan")]}, {"y": [float("inf")]}, {"jobs": 0}]
    )
    def test_range_checks_skip_the_keys_a_command_never_reads(self, tmp_path, overrides):
        # the scan reads none of these keys, so they neither fail it nor
        # change its hash; verify reads them all and still exits 2
        scan = make_config(tmp_path, command="counterexample-scan", D=[1], degreeLadder=[12, 16])
        hashed = RunConfig.from_dict({**scan, **overrides}).config_hash()
        assert hashed == RunConfig.from_dict(scan).config_hash()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, **overrides)))
        assert main(["--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["laplace", "phi", "oracle-compare"])
    def test_empty_ladder_exits_2(self, tmp_path, command):
        # each of these commands takes its top rung, and used to raise on []
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, command=command, degreeLadder=[])))
        assert main(["--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_geometry_selftest_never_reads_the_ladder(self, tmp_path, monkeypatch):
        # it used to raise on an empty ladder, a key it never reads
        monkeypatch.setattr(cli, "self_test", lambda seed: {"stub": {"pass": True}})
        cfg = RunConfig.from_dict(make_config(tmp_path, command="geometry-selftest", degreeLadder=[]))
        assert run(cfg) == 0


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

    def test_laplace_writes_the_same_csv_in_both_fields(self, tmp_path):
        # the rational transform carries pi^(D/2) outside its Fractions;
        # its CSV writes the same floats as the float transform's
        csvs = []
        for backend in ("float64", "rational"):
            out = tmp_path / backend
            grid = dict(command="laplace", D=[2, 4], degreeLadder=[10, 12], backend=backend)
            assert run(RunConfig.from_dict(make_config(tmp_path, outputDir=str(out), **grid))) == 0
            assert sorted(f.name for f in out.iterdir()) == [
                "laplace_2.csv", "laplace_2.csv.meta.json",
                "laplace_4.csv", "laplace_4.csv.meta.json", "report.json",
            ]
            csvs.append({D: (out / f"laplace_{D}.csv").read_text() for D in (2, 4)})
        assert csvs[0] == csvs[1]
        lines = csvs[0][4].splitlines()
        assert lines[0] == "n,c_n" and len(lines) == 14

    @pytest.mark.parametrize(
        "D, status, scope",
        [(2, 1, "theorem"), (3, 0, "outside theorem guarantee")],
        ids=["even-D", "odd-D"],
    )
    def test_violated_verdict_exits_1_only_inside_the_theorem_regime(
        self, tmp_path, monkeypatch, D, status, scope
    ):
        # a sphere at even D and J > 0 is covered by the theorem, so a
        # Violated verdict there is a bug signal; at odd D it is not
        pair = [1.25, 2.0, 1.0]  # stable roots -1 +- 0.5i
        violated = zeros.stabilize_series(pair + [0.0] * 8, pair + [0.0] * 10)
        monkeypatch.setattr(cli, "stabilize_rungs", lambda coeffs, *args: {N: violated for N in coeffs[30]})
        assert run(RunConfig.from_dict(make_config(tmp_path, D=[D]))) == status
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert [(v["overall"], v["scope"]) for v in report["verdicts"]] == [(VIOLATED, scope)]
        assert report["exit_status"] == status

    def test_measure_failing_validation_exits_2(self, tmp_path, capsys):
        # g(s) = s parses, but a linear g fails the degree check of validation
        linear = {"kind": "density", "f": [1.0], "g": [0.0, 1.0]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, measure=linear)))
        assert main(["--config", str(cfg_path)]) == 2
        assert "measure failed validation" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_geometry_selftest_exits_1(self, tmp_path, monkeypatch):
        summary = {"membership": {"pass": True}, "preimage": {"pass": False}}
        monkeypatch.setattr(cli, "self_test", lambda seed: summary)
        assert run(RunConfig.from_dict(make_config(tmp_path, command="geometry-selftest"))) == 1
        data = json.loads((tmp_path / "out" / "geometry_selftest.json").read_text())
        assert data["overall_pass"] is False and data["preimage"] == {"pass": False}
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["exit_status"] == 1

    def test_verify_on_a_tabulated_profile(self, tmp_path):
        # the config hash and the sidecars carry the samples through to_json
        grid = [[0.05 * k, float(np.exp(-((0.05 * k) ** 2)))] for k in range(200)]
        tabulated = {"kind": "tabulated", "samples": grid}
        cfg = RunConfig.from_dict(make_config(tmp_path, measure=tabulated))
        assert run(cfg) == 0
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["config_hash"] == cfg.config_hash() and report["errors"] == []
        assert [(v["N"], v["D"]) for v in report["verdicts"]] == [(2, 2)]
        sidecar = json.loads((out / "zeros_2_2_0.5.csv.meta.json").read_text())
        assert sidecar["config_hash"] == cfg.config_hash()
        other = make_config(tmp_path, measure={**tabulated, "samples": grid[:-1]})
        assert RunConfig.from_dict(other).config_hash() != cfg.config_hash()

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
        cfg = RunConfig.from_dict(
            make_config(tmp_path, command="oracle-compare", N=[2], D=[2, 4], y=[0.5, 1.0])
        )
        assert run(cfg) == 0
        rows = (tmp_path / "out" / "oracle_compare.csv").read_text().strip().splitlines()
        assert len(rows) == 5
        rels = [float(r.split(",")[7]) for r in rows[1:]]
        assert all(rel < 1e-10 for rel in rels)
        assert all(r.endswith(",funk-hecke-modal") for r in rows[1:])

    def test_oracle_compare_covers_every_sphere_row(self, tmp_path):
        # odd D, D = 1 and N > 2 at D >= 4 all get a row, none is skipped
        cfg = RunConfig.from_dict(
            make_config(tmp_path, command="oracle-compare", N=[2, 3, 5], D=[1, 3, 4, 6])
        )
        assert run(cfg) == 0
        rows = (tmp_path / "out" / "oracle_compare.csv").read_text().strip().splitlines()
        assert rows[0] == "N,D,J,y,phi_value,oracle_value,oracle_error,rel_diff,method"
        cells = [r.split(",") for r in rows[1:]]
        seen = sorted((int(c[0]), int(c[1]), float(c[3])) for c in cells)
        assert seen == sorted(
            (N, D, y) for N in (2, 3, 5) for D in (1, 3, 4, 6) for y in (0.5, 1.0, 2.0)
        )
        assert all(float(c[7]) < 1e-10 for c in cells)

    def test_geometry_selftest(self, tmp_path):
        cfg = RunConfig.from_dict(make_config(tmp_path, command="geometry-selftest"))
        assert run(cfg) == 0
        data = json.loads((tmp_path / "out" / "geometry_selftest.json").read_text())
        assert data["overall_pass"] is True

    def test_geometry_selftest_bits_at_seed_0(self, tmp_path):
        # sha256 of geometry_selftest.json at seed 0, as written before the
        # membership routes and the preimage construction were merged
        assert main(["geometry-selftest", "--seed", "0", "--out", str(tmp_path)]) == 0
        body = (tmp_path / "geometry_selftest.json").read_bytes()
        assert hashlib.sha256(body).hexdigest() == (
            "5d418f5699558d51733d831b49a2693695960b80dbd4f364e443dbc868b2a76d"
        )

    @pytest.mark.parametrize(
        "command, overrides",
        [("geometry-selftest", {}), ("counterexample-scan", {"D": [1], "degreeLadder": [12, 16]})],
    )
    def test_measureless_command_reports_no_certificate(self, tmp_path, monkeypatch, command, overrides):
        # these commands never read the measure, so they neither validate it
        # nor report the default sphere's certificate beside their verdicts
        validated = []
        monkeypatch.setattr(cli, "_validated", validated.append)
        run(RunConfig.from_dict(make_config(tmp_path, command=command, **overrides)))
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["measure_certified_lee_yang"] is None
        assert validated == []

    @staticmethod
    def _serial_and_pool_csvs(tmp_path, **grid):
        csvs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            assert run(RunConfig.from_dict(make_config(tmp_path, **grid, jobs=jobs, outputDir=str(out)))) == 0
            csvs.append({f.name: f.read_bytes() for f in out.glob("*.csv")})
        return csvs

    def test_parallel_jobs_match_serial(self, tmp_path):
        serial, pool = self._serial_and_pool_csvs(tmp_path, N=[2, 3], D=[2, 4], J=[0.5, 0.7])
        assert len(serial) == 8 and pool == serial
        # an odd pair count leaves one worker a chain more than the other
        serial, pool = self._serial_and_pool_csvs(tmp_path / "odd", N=[2, 3], D=[2, 4, 6], J=[0.5])
        assert len(serial) == 6 and pool == serial

    def test_parallel_rational_jobs_match_serial(self, tmp_path):
        serial, pool = self._serial_and_pool_csvs(
            tmp_path, N=[2, 3], D=[2, 4], J=[0.5, 0.7], degreeLadder=[10, 12], backend="rational",
            measure={"kind": "sphere", "radius": 0.3},
        )
        assert len(serial) == 8 and pool == serial

    def test_pool_maps_one_task_per_dimension_and_coupling(self, tmp_path, monkeypatch):
        # every chain length of a (D, J) pair comes from one recursion per
        # rung, so the pool gets one chain task per (M, D, J), top rung
        # first, then one verdict task per pair with its lower rung first
        mapped = []

        class InlineExecutor:
            def __init__(self, max_workers, initializer):
                self.max_workers = max_workers
                assert initializer is cli._one_blas_thread

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                for args in zip(*iterables):
                    mapped.append((fn.func, args))
                    yield fn(*args)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlineExecutor)
        grid = dict(N=[2, 3, 5], D=[2, 4], J=[0.5, 0.7], jobs=2)
        assert run(RunConfig.from_dict(make_config(tmp_path, **grid))) == 0
        pairs = [(2, 0.5), (2, 0.7), (4, 0.5), (4, 0.7)]
        assert [fn for fn, _ in mapped] == [cli._chain_task] * 8 + [cli._verdict_task] * 4
        assert [args for _, args in mapped[:8]] == [(M, *pair) for M in (30, 20) for pair in pairs]
        verdicts = [args for _, args in mapped[8:]]
        assert [args[:2] for args in verdicts] == pairs
        # each N's coefficients of rung M have M + 1 entries
        assert all([len(args[2][5]), len(args[3][5])] == [21, 31] for args in verdicts)
        assert len(list((tmp_path / "out").glob("zeros_*.csv"))) == 12

    def test_counterexample_scan_command(self, tmp_path):
        cfg = RunConfig.from_dict(
            make_config(tmp_path, command="counterexample-scan", D=[1], degreeLadder=[40, 60])
        )
        assert run(cfg) == 0
        body = (tmp_path / "out" / "counterexample_scan.csv").read_bytes()
        assert b"LeeYangViolated" in body
        # the CSV's bits as recorded before the scan ran through stabilize_chain
        assert hashlib.sha256(body).hexdigest() == SCAN_CSV_SHA256

    def test_counterexample_scan_computes_only_the_two_solved_rungs(self, tmp_path, monkeypatch):
        # the scan solves only its top two rungs, like verify, so a lower
        # rung is never computed and the ladder [30, 40, 60] writes the
        # CSV that test_counterexample_scan_command pins for [40, 60]
        degrees = []

        def counted(Ns, D, J, measure, M, field):
            degrees.append(M)
            return phi_chain(Ns, D, J, measure, M, field)

        monkeypatch.setattr(zeros, "phi_chain", counted)
        cfg = make_config(tmp_path, command="counterexample-scan", D=[1], degreeLadder=[30, 40, 60])
        assert run(RunConfig.from_dict(cfg)) == 0
        body = (tmp_path / "out" / "counterexample_scan.csv").read_bytes()
        assert set(degrees) == {40, 60}
        assert hashlib.sha256(body).hexdigest() == SCAN_CSV_SHA256

    def test_counterexample_scan_honours_tolerances(self, tmp_path):
        # a zero drift tolerance admits no stable root, so no violation
        # witness can fire and the scan must exit 1
        cfg = RunConfig.from_dict(
            make_config(
                tmp_path,
                command="counterexample-scan",
                D=[1],
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
            json.dumps(make_config(tmp_path, command="counterexample-scan", D=[1], degreeLadder=[30]))
        )
        assert main(["--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_counterexample_scan_rejects_other_dimensions(self, tmp_path):
        # the scan's density and verdict scope are D = 1 only; another D used
        # to run at D = 1 anyway under a different config hash
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(make_config(tmp_path, command="counterexample-scan", D=[4], degreeLadder=[40, 60]))
        )
        assert main(["--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_counterexample_scan_defaults_to_one_dimension(self, tmp_path):
        data = make_config(tmp_path, command="counterexample-scan", degreeLadder=[40, 60])
        del data["D"]
        assert RunConfig.from_dict(data).Ds == (1,)

    def test_oracle_compare_needs_sphere(self, tmp_path):
        # a per-command measure rule, so the config is rejected before any work
        density = {"kind": "density", "f": [1.0], "g": [0.0, 0.0, 1.0]}
        data = make_config(tmp_path, command="oracle-compare", measure=density)
        with pytest.raises(ConfigError, match="require a sphere measure"):
            RunConfig.from_dict(data)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(data))
        assert main(["--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_numeric_failure_lands_in_report(self, tmp_path):
        # sphere coefficients r^n pass the float range at r = 1e300 only
        # once the transform is built: recorded with its D, not crashed
        huge = {"kind": "sphere", "radius": 1e300}
        cfg = RunConfig.from_dict(make_config(tmp_path, command="laplace", measure=huge, D=[3, 2]))
        assert run(cfg) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["errors"] == [
            "numeric failure: D=3: sphere coefficient of degree 1 overflows at r=1e+300"
        ]

    @pytest.mark.parametrize("command", ["laplace", "phi", "verify"])
    def test_tabulated_measure_at_one_dimension_exits_2(self, tmp_path, capsys, command):
        # the D = 1 moment m_(-1/2) of a tabulated profile is singular at
        # s = 0; the config alone shows it, so no work starts
        grid = [[0.05 * k, float(np.exp(-((0.05 * k) ** 2)))] for k in range(200)]
        cfg_path = tmp_path / "cfg.json"
        tabulated = {"kind": "tabulated", "samples": grid}
        cfg_path.write_text(json.dumps(make_config(tmp_path, command=command, measure=tabulated, D=[2, 1])))
        assert main(["--config", str(cfg_path)]) == 2
        assert "do not support D=1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_underflow_wall_exits_3(self, tmp_path):
        # D=2 sphere coefficients underflow to 0.0 past n ~ 88, so the
        # companion matrix of the degree-120 rung is not finite
        cfg = RunConfig.from_dict(make_config(tmp_path, N=[1], degreeLadder=[100, 120]))
        assert run(cfg) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdicts"] == []
        assert report["errors"] and report["exit_status"] == 3
        assert report["errors"] == [
            "numeric failure: D=2, J=0.5: series underflowed: coefficient of degree 85 is subnormal"
        ]

    def test_underflow_wall_at_half_radius_exits_3(self, tmp_path):
        # at r = 0.5 the degree-80 coefficient is 3.5e-310, the last one kept
        half = {"kind": "sphere", "radius": 0.5}
        cfg = RunConfig.from_dict(make_config(tmp_path, measure=half, N=[1], degreeLadder=[60, 80]))
        assert run(cfg) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdicts"] == []
        assert report["errors"] == [
            "numeric failure: D=2, J=0.5: series underflowed: coefficient of degree 80 is subnormal"
        ]

    def test_underflowed_rung_pair_exits_3(self, tmp_path):
        # both rungs trim to degree 1 at r = 1e-300: no verdict from a vacuous ladder
        tiny = {"kind": "sphere", "radius": 1e-300}
        cfg = RunConfig.from_dict(make_config(tmp_path, measure=tiny, N=[3], degreeLadder=[5, 6]))
        assert run(cfg) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdicts"] == []
        assert report["errors"] == [
            "numeric failure: D=2, J=0.5: N=3: series underflowed: "
            "rung 6 reaches degree 1, not above rung 5's degree 1"
        ]

    def test_overflow_exits_3(self, tmp_path):
        # sphere coefficients r^n / (4^n n!^2) pass the float range at r = 1e300;
        # the failure is recorded, naming its (D, J) pair and the coefficient,
        # not a traceback with exit status 1
        huge = {"kind": "sphere", "radius": 1e300}
        cfg = RunConfig.from_dict(make_config(tmp_path, measure=huge, degreeLadder=[10, 12]))
        assert run(cfg) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["verdicts"] == []
        assert report["errors"] == [
            "numeric failure: D=2, J=0.5: sphere coefficient of degree 2 overflows at r=1e+300"
        ]
        assert report["exit_status"] == 3

    def test_coupling_overflow_names_the_power(self, tmp_path):
        cfg = RunConfig.from_dict(make_config(tmp_path, J=[1e200]))
        assert run(cfg) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["errors"] == [
            "numeric failure: D=2, J=1e+200: coupling power J^2 overflows at J=1e+200"
        ]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_numeric_failure_names_its_item(self, tmp_path, jobs):
        huge = {"kind": "sphere", "radius": 1e300}
        cfg = RunConfig.from_dict(
            make_config(tmp_path, measure=huge, D=[2, 4], J=[0.5], degreeLadder=[10, 12], jobs=jobs)
        )
        assert run(cfg) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["errors"] == [
            "numeric failure: D=2, J=0.5: sphere coefficient of degree 2 overflows at r=1e+300",
            "numeric failure: D=4, J=0.5: sphere coefficient of degree 1 overflows at r=1e+300",
        ]

    def test_oracle_compare_overflow_names_its_item(self, tmp_path):
        huge = {"kind": "sphere", "radius": 1e300}
        cfg = RunConfig.from_dict(
            make_config(tmp_path, command="oracle-compare", measure=huge, degreeLadder=[10, 12])
        )
        assert run(cfg) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["errors"] == [
            "numeric failure: D=2, J=0.5: sphere coefficient of degree 2 overflows at r=1e+300"
        ]

    @pytest.mark.parametrize(
        "radius, J, y", [(1e6, 0.5, 100.0), (1000, 1, 0.5), (1.0, 0.5, 1e200)]
    )
    def test_oracle_compare_value_not_finite_exits_3(self, tmp_path, radius, J, y):
        # the modal series overflows (or y^2 does); any warning would fail this test
        sphere = {"kind": "sphere", "radius": radius}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(
            tmp_path, command="oracle-compare", measure=sphere, J=[J], y=[y], degreeLadder=[10, 20]
        )))
        assert main(["--config", str(cfg_path)]) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        [error] = report["errors"]
        assert error.startswith(f"numeric failure: D=2, J={J:g}: N=2, y={y:g}: not finite: ")
        assert not (tmp_path / "out" / "oracle_compare.csv").exists()

    def test_phi_overflow_names_its_item(self, tmp_path):
        cfg = RunConfig.from_dict(make_config(tmp_path, command="phi", J=[1e308], degreeLadder=[10, 12]))
        assert run(cfg) == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        [error] = report["errors"]
        assert error.startswith("numeric failure: D=2, J=1e+308: ")

    @pytest.mark.parametrize(
        "command, radius, status, degree",
        [("verify", 1e4, 0, None), ("verify", 3e4, 3, 25), ("verify", 1e6, 3, 5), ("phi", 1e6, 3, 5)],
    )
    def test_float_chain_overflow_names_its_chain(self, tmp_path, command, radius, status, degree):
        # the float step overflows past r = 1e4 at the default ladder; the
        # failure names the first chain whose coefficient is not finite, no
        # warning escapes, and phi writes no row of inf or nan
        sphere = {"kind": "sphere", "radius": radius}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(
            tmp_path, command=command, measure=sphere, N=[1, 2, 3], degreeLadder=[30, 40]
        )))
        assert main(["--config", str(cfg_path)]) == status
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        if degree is not None:
            assert report["errors"] == [
                f"numeric failure: D=2, J=0.5: N=3: chain coefficient of degree {degree} is not finite"
            ]
            assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_chain_keeps_the_finished_pairs(self, tmp_path, jobs):
        # three of the four pairs overflow at r = 3e4; the fourth still
        # writes its verdicts and CSVs, and each failing pair records one
        # error, in grid order, naming its lower rung's chain
        sphere = {"kind": "sphere", "radius": 3e4}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(
            tmp_path, measure=sphere, N=[1, 2, 3], D=[2, 4], J=[0.5, 0.1], degreeLadder=[30, 40],
            jobs=jobs,
        )))
        assert main(["--config", str(cfg_path)]) == 3
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert [(v["N"], v["D"], v["J"], v["overall"]) for v in report["verdicts"]] == [
            (N, 2, 0.1, INCONCLUSIVE) for N in (1, 2, 3)
        ]
        assert sorted(f.name for f in out.glob("*.csv")) == [f"zeros_{N}_2_0.1.csv" for N in (1, 2, 3)]
        assert report["errors"] == [
            f"numeric failure: D={D}, J={J}: N=3: chain coefficient of degree {degree} is not finite"
            for D, J, degree in ((2, 0.5, 25), (4, 0.5, 18), (4, 0.1, 34))
        ]
        assert report["exit_status"] == 3

    def test_verify_computes_only_the_two_solved_rungs(self, tmp_path, monkeypatch):
        # the ladder solves only its top two rungs, so a lower rung is never
        # computed and leaves no trace in the artifacts
        degrees = []

        def counted(Ns, D, J, measure, M, field):
            degrees.append(M)
            return phi_chain(Ns, D, J, measure, M, field)

        monkeypatch.setattr(zeros, "phi_chain", counted)
        outputs = []
        for name, ladder in (("three", [30, 40, 50]), ("two", [40, 50])):
            grid = dict(N=[2, 3], D=[2, 3], J=[0.5, -0.7], degreeLadder=ladder)
            assert run(RunConfig.from_dict(make_config(tmp_path, outputDir=str(tmp_path / name), **grid))) == 0
            out = tmp_path / name
            report = json.loads((out / "report.json").read_text())
            outputs.append(({f.name: f.read_bytes() for f in out.glob("zeros_*.csv")}, report["verdicts"]))
        assert set(degrees) == {40, 50}
        assert len(outputs[0][0]) == 8 and outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "grid, count, digest",
        [
            (dict(N=[1, 2, 3], D=[2, 3], J=[0.5, -0.3], degreeLadder=[20, 30]), 12,
             "7a0bbee7bdc5ac0f267bf657b385043629a066626409acdbc1a242c08a447873"),
            (dict(measure={"kind": "density", "f": [1.0], "g": [0.0, 1.0, 0.5]},
                  N=[1, 2, 3], D=[2, 4], J=[0.5, -0.3], degreeLadder=[20, 30]), 12,
             "d380774d92fa1661672670721b583b344d8b061b221f3622608ebb7dde27b37b"),
            (dict(N=[1, 2, 3], D=[2, 4], J=[0.5], degreeLadder=[10, 12, 14], backend="rational"), 6,
             "eedd64ed680019d7fde84f59b9056c0e6d7a162873ae5aab0233e78aa3542636"),
        ],
        ids=["float-sphere", "phi4-density", "rational-sphere"],
    )
    def test_verdict_bits_pinned(self, tmp_path, grid, count, digest):
        # sha256 over every zeros_*.csv (name, NUL, bytes, in name order),
        # recorded while the ladder still took a rung dict
        assert run(RunConfig.from_dict(make_config(tmp_path, **grid))) == 0
        files = sorted((tmp_path / "out").glob("zeros_*.csv"))
        h = hashlib.sha256()
        for f in files:
            h.update(f.name.encode() + b"\0" + f.read_bytes())
        assert len(files) == count and h.hexdigest() == digest

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


class TestNoCommandRunsTheOperatorConstruction:
    """The operator construction in ``polys`` is the reference that tests
    check the fast chain against; every command runs without it."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"D": [2, 3]},
            {"backend": "rational", "degreeLadder": [10, 12]},
            {"command": "phi"},
            {"command": "laplace"},
            {"command": "oracle-compare"},
            {"command": "counterexample-scan", "D": [1], "degreeLadder": list(RunConfig.degree_ladder)},
        ],
        ids=["verify-float", "verify-rational", "phi", "laplace", "oracle-compare", "counterexample-scan"],
    )
    def test_command_exits_0_without_it(self, tmp_path, monkeypatch, overrides):
        def refuse(*args):
            raise AssertionError("a command routed through the operator construction")

        for name in ("exp_operator", "apply_operator", "merge_2_3"):
            monkeypatch.setattr(polys, name, refuse)
        v = laplace_transform(RadialMeasure.sphere(1.0), 2, 6)
        with pytest.raises(AssertionError):  # the construction reads the patched names
            polys.psi_two(v, v, 0.5)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, N=[1, 2, 3], **overrides)))
        assert main(["--config", str(cfg_path)]) == 0


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

    def test_rational_backend_rejects_odd_dimension(self, tmp_path):
        # a configuration fault, not a numeric failure: exit 2 before any work
        sphere = {"kind": "sphere", "radius": 0.3}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                make_config(
                    tmp_path, command="phi", backend="rational", measure=sphere,
                    D=[3], J=[0.2], degreeLadder=[10, 12],
                )
            )
        )
        assert main(["--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_rational_backend_rejects_density(self, tmp_path):
        density = {"kind": "density", "f": [1.0], "g": [0.0, 0.0, 1.0]}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, backend="rational", measure=density)))
        assert main(["--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["counterexample-scan", "geometry-selftest"])
    def test_rational_backend_rejects_float_only_commands(self, tmp_path, command):
        # these commands have only a float path, which must not run in its place
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, command=command, D=[1], backend="rational")))
        assert main(["--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, ladder", [("verify", [-1, 10]), ("laplace", [-2])])
    def test_negative_ladder_rejected(self, tmp_path, command, ladder):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, command=command, degreeLadder=ladder)))
        assert main(["--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("J", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coupling_rejected(self, tmp_path, J):
        # json reads NaN and Infinity, so they arrive from a config file
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, J=[0.5, J])))
        assert main(["--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "tolerances",
        [
            # an infinite or huge drift makes every top-window root "stable",
            # which reports LeeYangViolated at N = 3, D = 4, J = 1 and exits 1
            {"drift": float("inf")},
            {"drift": 1e300},
            {"drift": float("nan")},
            {"drift": -1e-8},
            # axis >= 1 counts every root with Re zeta < 0 as on the axis
            {"axis": 1.0},
            {"axis": float("nan")},
            {"axis": -1e-6},
        ],
    )
    def test_tolerance_outside_unit_interval_rejected(self, tmp_path, tolerances):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(make_config(tmp_path, N=[3], D=[4], J=[1.0], degreeLadder=[30, 40], tolerances=tolerances))
        )
        assert main(["--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, argv",
        [
            # exit 1 means "Violated inside the theorem regime", so a malformed
            # file must not end in a traceback (which exits 1)
            ('{"command": "verify", "tolerances": [1]}', []),
            ('{"command": "verify", "tolerances": 0.5}', []),
            ("[1, 2]", []),
            ("[1, 2]", ["verify"]),
            ('"verify"', ["verify"]),
            ('{"command": "verify", "measure": {"kind": "sphere", "radius": "one"}}', []),
            ('{"command": "laplace", "measure": {"kind": "density", "f": ["x"], "g": [0, 0, 1]}}', []),
            # a measure that is not an object, or JSON text of one: the
            # first raised AttributeError, the second ran a sphere
            ('{"command": "laplace", "measure": "1e400"}', []),
            ('{"command": "laplace", "measure": [["kind", "sphere"], ["radius", 1.0]]}', []),
        ],
    )
    def test_malformed_config_exits_2(self, tmp_path, capsys, text, argv):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, key",
        [
            # a typo used to be ignored, running the default (30, 40) ladder
            ({"degreeLader": [10, 12]}, "'degreeLader'"),
            ({"tolerances": {"axsi": 0.5}}, "'tolerances.axsi'"),
            # the removed switch is an unknown key too, not a silent no-op
            ({"oracle": True}, "'oracle'"),
        ],
    )
    def test_unknown_key_exits_2_and_names_it(self, tmp_path, capsys, overrides, key):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, **overrides)))
        assert main(["--config", str(cfg_path)]) == 2
        assert f"unknown config key: {key}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            # each used to be coerced: "23" ran N = (2, 3), the ladder ran
            # (30, 40) and true read as 1
            ({"N": "23"}, "N must be a JSON list, not str"),
            ({"J": {"a": 1}}, "J must be a JSON list, not dict"),
            ({"y": 0.5}, "y must be a JSON list, not float"),
            ({"degreeLadder": [30.7, 40.2]}, "degreeLadder must hold integers"),
            ({"D": [2.0]}, "D must hold integers"),
            ({"jobs": 2.5}, "jobs must hold integers"),
            ({"seed": "7"}, "seed must hold integers"),
            ({"jobs": True}, "jobs must not be a boolean"),
            ({"N": [True]}, "N must not be a boolean"),
            ({"J": [0.5, False]}, "J must not be a boolean"),
            ({"tolerances": {"drift": True}}, "tolerances.drift must not be a boolean"),
            ({"measure": {"kind": "sphere", "radius": True}}, "measure.radius must not be a boolean"),
        ],
    )
    def test_wrong_type_exits_2_and_names_it(self, tmp_path, capsys, overrides, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, **overrides)))
        assert main(["--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["verify", "phi"])
    @pytest.mark.parametrize(
        "overrides, message",
        [
            # two couplings that print alike used to write one CSV, the
            # second overwriting the first
            ({"J": [0.5000001, 0.5000002]}, "J entries must differ"),
            # a repeated entry used to redo the same chain
            ({"N": [2, 3, 2]}, "N entries must be distinct"),
            ({"D": [2, 2]}, "D entries must be distinct"),
        ],
        ids=["J", "N", "D"],
    )
    def test_repeated_grid_entry_exits_2_and_names_it(self, tmp_path, capsys, command, overrides, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, command=command, **overrides)))
        assert main(["--config", str(cfg_path)]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("y", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_oracle_point_rejected(self, tmp_path, y):
        # a NaN used to exit 0 with a row of nan values in oracle_compare.csv
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, command="oracle-compare", y=[0.5, y])))
        assert main(["--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, tmp_path, jobs):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, jobs=jobs)))
        assert main(["--config", str(cfg_path)]) == 2
        cfg_path.write_text(json.dumps(make_config(tmp_path)))
        assert main(["--config", str(cfg_path), "--jobs", str(jobs)]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "overrides", [{"J": [10**400]}, {"measure": {"kind": "sphere", "radius": 10**400}}]
    )
    def test_rational_scalar_past_float_range_rejected(self, tmp_path, overrides):
        # an exact J or radius that the config hash cannot write as a float
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, backend="rational", **overrides)))
        assert main(["--config", str(cfg_path)]) == 2
        assert not (tmp_path / "out").exists()

    def test_uncaught_error_exits_4_with_its_traceback(self, tmp_path, capsys, monkeypatch):
        # status 1 means a Violated verdict inside the theorem regime, so an
        # error that escapes run() gets a status of its own
        def broken(*args):
            raise ValueError("broken transform")

        monkeypatch.setattr(cli, "laplace_transform", broken)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, command="laplace")))
        assert main(["--config", str(cfg_path)]) == 4
        err = capsys.readouterr().err
        assert "Traceback" in err and "ValueError: broken transform" in err

    def test_flag_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path)))
        out2 = tmp_path / "override"
        assert main(["--config", str(cfg_path), "--out", str(out2), "--seed", "3"]) == 0
        assert (out2 / "report.json").exists()


def _fresh_python(code):
    """Run ``code`` in a new interpreter that imports this rotorzeros; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(Path(rotorzeros.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return proc.stdout


class TestLazyScipy:
    """scipy loads only when a run integrates; sphere runs never do."""

    def test_sphere_verify_never_imports_scipy(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, degreeLadder=[10, 12])))
        out = _fresh_python(
            "import sys\n"
            "import rotorzeros.cli\n"
            "print('scipy' in sys.modules)\n"
            f"print(rotorzeros.cli.main(['--config', {str(cfg_path)!r}]))\n"
            "print('scipy' in sys.modules)\n"
        )
        assert out.split() == ["False", "0", "False"]
        import scipy

        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["versions"]["scipy"] == scipy.__version__

    def test_density_moment_leaves_scipy_integrate_unloaded(self):
        # moments call QUADPACK's extension directly; a later scipy.integrate
        # import reuses that extension module and its quad keeps working
        out = _fresh_python(
            "import sys\n"
            "from rotorzeros import measures\n"
            "measures.laplace_transform(measures.RadialMeasure.sphere(1.0), 2, 10)\n"
            "print('scipy' in sys.modules)\n"
            "gauss = measures.RadialMeasure.density([1.0], [0.0, 0.0, 1.0])\n"
            "m = measures.radial_moment(gauss, 1)\n"
            "print('scipy.integrate' in sys.modules, abs(m - 0.5) < 1e-12)\n"
            "from scipy import integrate\n"
            "f = measures._compiled(gauss).integrand(3)\n"
            "args = dict(epsabs=0.0, epsrel=1e-12, limit=400)\n"
            "print(integrate.quad(f, 0.0, 4.0, **args) == measures.integrate.quad(f, 0.0, 4.0, **args))\n"
        )
        assert out.split() == ["False", "False", "True", "True"]


def blas_threads():
    """The thread count numpy's bundled OpenBLAS reports, or None where it is not found."""
    try:
        get = ctypes.CDLL(np._core._multiarray_umath.__file__).scipy_openblas_get_num_threads64_
    except (AttributeError, OSError):
        return None
    get.restype = ctypes.c_int
    return get()


# blas_threads for a fresh interpreter
_BLAS_THREADS = "import ctypes\nimport numpy as np\n" + inspect.getsource(blas_threads)


class TestOneBlasThread:
    """CLI runs and their pool workers use one OpenBLAS thread."""

    @pytest.fixture(autouse=True)
    def need_symbol(self):
        if blas_threads() is None:
            pytest.skip("numpy's bundled OpenBLAS symbols are not found")

    def test_main_caps_the_caller(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(make_config(tmp_path, degreeLadder=[10, 12])))
        out = _fresh_python(
            _BLAS_THREADS
            + "import rotorzeros.cli\n"
            + f"print(rotorzeros.cli.main(['--config', {str(cfg_path)!r}]))\n"
            + "print(blas_threads())\n"
        )
        assert out.split() == ["0", "1"]

    def test_sweep_workers_are_capped(self, tmp_path):
        # cli.run, not main, so the workers cannot inherit a cap from the caller
        cfg = make_config(tmp_path, command="sweep", D=[2, 4], degreeLadder=[10, 12], jobs=2)
        out = _fresh_python(
            _BLAS_THREADS
            + "from rotorzeros import cli\n"
            + "class Probed(cli.ProcessPoolExecutor):\n"
            + "    def map(self, fn, *iterables, **kwargs):\n"
            + "        print(self.submit(blas_threads).result())\n"
            + "        return super().map(fn, *iterables, **kwargs)\n"
            + "cli.ProcessPoolExecutor = Probed\n"
            + f"print(cli.run(cli.RunConfig.from_dict({cfg!r})))\n"
        )
        # one line per map: the chain tasks', then the verdict tasks'
        assert out.split() == ["1", "1", "0"]

def test_one_blas_thread_leaves_a_capped_count_alone(monkeypatch):
    # a worker forked from a capped caller already counts one thread;
    # setting the count again would start an OpenBLAS thread that spins
    def get_threads():
        return 1

    def set_threads(n):
        raise AssertionError("the setter was called")

    library = type("Library", (), {
        "scipy_openblas_get_num_threads64_": staticmethod(get_threads),
        "scipy_openblas_set_num_threads64_": staticmethod(set_threads),
    })
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: library())
    cli._one_blas_thread()


def test_console_script_resolves_to_main():
    # CI runs the package from PYTHONPATH and never calls the installed script
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["rotorzeros"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is main


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadme:
    """The README's command list and example config match the code."""

    def test_commands_list(self):
        listed = re.search(r"Commands:(.*?)\.", README.read_text(), re.S).group(1)
        assert tuple(re.findall(r"`([^`]+)`", listed)) == cli.COMMANDS

    def test_example_config_parses(self):
        example = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
        cfg = RunConfig.from_dict(json.loads(example))
        assert cfg.command == "verify" and cfg.degree_ladder == (30, 40, 50)
