"""Command-line front end: configuration, sweeps, reports, golden files.

A run is described by a JSON config; every artifact CSV gets a metadata
sidecar carrying the config hash, and a run-level ``report.json`` collects
verdicts, timings, and versions.  Identical config + seed produces
byte-identical CSV artifacts (single-stream mode).

Exit status: 0 on completion, 1 when any Violated verdict occurs inside a
theorem-covered regime (even D, J > 0, certified measure), 2 on
configuration errors, 3 when a numeric failure was recorded in the
report's ``errors`` and no status 1 applies.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .geometry import self_test
from .laguerre import counterexample_scan, violation_witnesses
from .measures import MeasureError, RadialMeasure, laplace_transform, validate_measure
from .oracles import z_direct_circle, z_direct_mc
from .polys import RATIONAL
from .recursion import phi_chain, stable_coefficient_count
from .zeros import VIOLATED, stabilize_chain

SCHEMA_VERSION = 1

COMMANDS = (
    "laplace",
    "phi",
    "zeros",
    "verify",
    "oracle-compare",
    "geometry-selftest",
    "counterexample-scan",
    "sweep",
)


class ConfigError(ValueError):
    """Invalid run configuration (exit status 2)."""


@dataclass
class RunConfig:
    command: str
    measure: RadialMeasure
    Ns: tuple = (2,)
    Ds: tuple = (2,)
    Js: tuple = (0.5,)
    degree_ladder: tuple = (30, 40)
    axis_tol: float = 1e-6
    drift_tol: float = 1e-8
    output_dir: str = "out"
    seed: int = 0
    backend: str = "float64"
    oracle: bool = False
    jobs: int = 1
    ys: tuple = (0.5, 1.0, 2.0)

    @classmethod
    def from_dict(cls, data):
        try:
            command = data["command"]
            if command not in COMMANDS:
                raise ConfigError(f"unknown command {command!r}")
            backend = str(data.get("backend", "float64"))
            exact = backend == RATIONAL
            measure = RadialMeasure.from_json(
                data.get("measure", {"kind": "sphere", "radius": 1.0}), exact=exact
            )
            coupling = (lambda j: Fraction(str(j))) if exact else float
            cfg = cls(
                command=command,
                measure=measure,
                Ns=tuple(int(n) for n in data.get("N", [2])),
                Ds=tuple(int(d) for d in data.get("D", [2])),
                Js=tuple(coupling(j) for j in data.get("J", [0.5])),
                degree_ladder=tuple(int(m) for m in data.get("degreeLadder", [30, 40])),
                axis_tol=float(data.get("tolerances", {}).get("axis", 1e-6)),
                drift_tol=float(data.get("tolerances", {}).get("drift", 1e-8)),
                output_dir=str(data.get("outputDir", "out")),
                seed=int(data.get("seed", 0)),
                backend=backend,
                oracle=bool(data.get("oracle", False)),
                jobs=int(data.get("jobs", 1)),
                ys=tuple(float(y) for y in data.get("y", [0.5, 1.0, 2.0])),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, MeasureError) as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc
        cfg.validate()
        return cfg

    def validate(self):
        for name, values in (("N", self.Ns), ("D", self.Ds), ("J", self.Js)):
            if not values:
                raise ConfigError(f"list {name} must be nonempty")
        ladder_commands = ("zeros", "verify", "sweep", "counterexample-scan")
        if len(self.degree_ladder) < 2 and self.command in ladder_commands:
            raise ConfigError("degreeLadder needs at least two stages")
        if any(b <= a for a, b in zip(self.degree_ladder, self.degree_ladder[1:])):
            raise ConfigError("degreeLadder must be strictly increasing")
        if any(n < 1 for n in self.Ns):
            raise ConfigError("chain lengths must be positive")
        if any(d < 1 for d in self.Ds):
            raise ConfigError("dimensions must be positive")
        if self.backend not in ("float64", "rational"):
            raise ConfigError(f"unknown backend {self.backend!r}")

    def config_hash(self):
        blob = json.dumps(
            {
                "command": self.command,
                "measure": json.loads(self.measure.to_json()),
                "N": list(self.Ns),
                "D": list(self.Ds),
                "J": [float(j) for j in self.Js],
                "degreeLadder": list(self.degree_ladder),
                "tolerances": {"axis": self.axis_tol, "drift": self.drift_tol},
                "seed": self.seed,
                "backend": self.backend,
                "y": list(self.ys),
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_artifact(outdir: Path, name: str, text: str, cfg_hash: str, extra=None):
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / name).write_text(text)
    sidecar = {"schema": SCHEMA_VERSION, "config_hash": cfg_hash, "artifact": name}
    if extra:
        sidecar.update(extra)
    (outdir / (name + ".meta.json")).write_text(json.dumps(sidecar, sort_keys=True) + "\n")


def _theorem_regime(D, J, certified):
    return D >= 2 and D % 2 == 0 and J > 0 and certified


def _fmt(x):
    return f"{float(x):g}"


def _stabilize_task(args):
    measure_json, N, D, J, ladder, axis_tol, drift_tol, backend = args
    measure = RadialMeasure.from_json(measure_json, exact=backend == RATIONAL)
    reports = stabilize_chain(
        [N], D, J, measure, ladder, tol=axis_tol, drift_tol=drift_tol, field=backend
    )
    return (N, D, J, reports[N])


def _oracle_table(cfg: RunConfig) -> str:
    """Side-by-side phi vs direct-quadrature values (sphere measures only)."""
    if cfg.measure.kind != "sphere":
        raise ConfigError("oracle comparisons require a sphere measure")
    M_top = max(cfg.degree_ladder)
    lines = ["N,D,J,y,phi_value,oracle_value,oracle_error,rel_diff,method"]
    for D in cfg.Ds:
        for J in cfg.Js:
            chain = phi_chain(cfg.Ns, D, J, cfg.measure, M_top, cfg.backend)
            for N in sorted(chain):
                for y in cfg.ys:
                    series_val = complex(chain[N].evaluate(-(y * y)))
                    if D == 2 and 2 <= N <= 4:
                        res = z_direct_circle(N, J, float(cfg.measure.radius), y, 512)
                    elif N == 2 and D >= 4 and D % 2 == 0:
                        res = z_direct_mc(
                            2, D, J, float(cfg.measure.radius), y, seed=cfg.seed
                        )
                    else:
                        continue
                    rel = float(abs(series_val - res.value) / max(abs(res.value), 1e-300))
                    lines.append(
                        f"{N},{D},{_fmt(J)},{_fmt(y)},{float(series_val.real)!r},"
                        f"{float(res.value.real)!r},{float(res.estimated_error)!r},{rel!r},{res.method}"
                    )
    return "\n".join(lines) + "\n"


def _grid_reports(cfg: RunConfig):
    """stabilize over the (N, D, J) grid, chain-sharing per (D, J)."""
    tasks = []
    for D in cfg.Ds:
        for J in cfg.Js:
            tasks.append((D, J))
    results = {}
    if cfg.jobs > 1:
        work = [
            (cfg.measure.to_json(), N, D, J, cfg.degree_ladder, cfg.axis_tol, cfg.drift_tol, cfg.backend)
            for D, J in tasks
            for N in cfg.Ns
        ]
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            for N, D, J, rep in pool.map(_stabilize_task, work):
                results[(N, D, J)] = rep
    else:
        for D, J in tasks:
            reports = stabilize_chain(
                cfg.Ns, D, J, cfg.measure, cfg.degree_ladder,
                tol=cfg.axis_tol, drift_tol=cfg.drift_tol, field=cfg.backend,
            )
            for N, rep in reports.items():
                results[(N, D, J)] = rep
    return results


def run(cfg: RunConfig) -> int:
    """Execute one configured pipeline; write artifacts; return exit status."""
    outdir = Path(cfg.output_dir)
    cfg_hash = cfg.config_hash()
    t_start = time.perf_counter()
    timings = {}
    verdicts = []
    errors = []
    status = 0

    validation = validate_measure(cfg.measure)
    if cfg.command not in ("geometry-selftest", "counterexample-scan") and not validation.passed:
        print(f"measure failed validation: {validation.failures()}", file=sys.stderr)
        return 2

    M_top = max(cfg.degree_ladder)
    try:
        if cfg.command == "laplace":
            for D in cfg.Ds:
                v = laplace_transform(cfg.measure, D, M_top, cfg.backend)
                _write_artifact(outdir, f"laplace_{D}.csv", v.to_csv(), cfg_hash)
        elif cfg.command == "phi":
            ladder = sorted(set(cfg.degree_ladder))
            M_low = ladder[-2] if len(ladder) >= 2 else None
            for D in cfg.Ds:
                for J in cfg.Js:
                    chain = phi_chain(cfg.Ns, D, J, cfg.measure, M_top, cfg.backend)
                    lower = (
                        phi_chain(cfg.Ns, D, J, cfg.measure, M_low, cfg.backend)
                        if M_low is not None
                        else None
                    )
                    for N, series in sorted(chain.items()):
                        stable = (
                            stable_coefficient_count(lower[N], series)
                            if lower is not None
                            else None
                        )
                        name = f"phi_{N}_{D}_{_fmt(J)}.csv"
                        _write_artifact(
                            outdir,
                            name,
                            series.to_csv(),
                            cfg_hash,
                            series.metadata(stable_through=stable),
                        )
        elif cfg.command in ("zeros", "verify", "sweep"):
            reports = _grid_reports(cfg)
            for (N, D, J), rep in sorted(reports.items()):
                in_regime = _theorem_regime(D, J, validation.certified_lee_yang)
                scope = "theorem" if in_regime else "outside theorem guarantee"
                verdicts.append(
                    {
                        "N": N,
                        "D": D,
                        "J": float(J),
                        "overall": rep.overall,
                        "stable_roots": int(sum(rep.stable)),
                        "scope": scope,
                    }
                )
                if rep.overall == VIOLATED and in_regime:
                    status = 1
                name = f"zeros_{N}_{D}_{_fmt(J)}.csv"
                _write_artifact(outdir, name, rep.to_csv(), cfg_hash, {"scope": scope})
        elif cfg.command == "oracle-compare":
            _write_artifact(outdir, "oracle_compare.csv", _oracle_table(cfg), cfg_hash)
        elif cfg.command == "geometry-selftest":
            summary = self_test(seed=cfg.seed)
            ok = all(section["pass"] for section in summary.values())
            summary["overall_pass"] = ok
            _write_artifact(
                outdir, "geometry_selftest.json", json.dumps(summary, indent=1) + "\n", cfg_hash
            )
            if not ok:
                status = 1
        elif cfg.command == "counterexample-scan":
            scan = counterexample_scan(
                ladder=cfg.degree_ladder,
                tol=cfg.axis_tol,
                drift_tol=cfg.drift_tol,
            )
            lines = ["a,overall,n_off_axis,first_off_axis_re,first_off_axis_im"]
            for row in scan:
                first = row["off_axis_roots"][0] if row["off_axis_roots"] else ["", ""]
                lines.append(
                    f"{row['a']!r},{row['overall']},{len(row['off_axis_roots'])},{first[0]!r},{first[1]!r}"
                )
            _write_artifact(outdir, "counterexample_scan.csv", "\n".join(lines) + "\n", cfg_hash)
            verdicts = [
                {"a": r["a"], "overall": r["overall"], "scope": "outside theorem guarantee (D=1)"}
                for r in scan
            ]
            if not violation_witnesses(scan):
                # the negative path must demonstrably fire; a clean scan is a bug signal
                status = 1
        else:  # pragma: no cover
            raise ConfigError(f"unhandled command {cfg.command!r}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (MeasureError, RuntimeError, np.linalg.LinAlgError) as exc:
        # numeric failures surface in the summary, not as a crash
        errors.append(f"numeric failure: {exc}")

    if cfg.oracle and cfg.command != "oracle-compare" and cfg.measure.kind == "sphere":
        try:
            _write_artifact(outdir, "oracle_compare.csv", _oracle_table(cfg), cfg_hash)
        except (MeasureError, ValueError, RuntimeError) as exc:
            errors.append(f"oracle comparison failed: {exc}")

    if errors and status == 0:
        status = 3
    timings["total_s"] = round(time.perf_counter() - t_start, 6)
    report = {
        "schema": SCHEMA_VERSION,
        "command": cfg.command,
        "config_hash": cfg_hash,
        "verdicts": verdicts,
        "errors": errors,
        "timings": timings,
        "versions": {
            "rotorzeros": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "measure_certified_lee_yang": validation.certified_lee_yang,
        "exit_status": status,
    }
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rotorzeros",
        description="Lee-Yang zero analysis for isotropic spin chains",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS, help="pipeline to run")
    parser.add_argument("--config", help="JSON config file (overrides other flags)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed for stochastic oracles")
    parser.add_argument("--backend", choices=["float64", "rational"], default=None)
    parser.add_argument("--oracle", action="store_true", help="attach oracle comparisons")
    parser.add_argument("--jobs", type=int, default=None, help="parallel sweep workers")
    args = parser.parse_args(argv)

    try:
        if args.config:
            try:
                data = json.loads(Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"unreadable config: {exc}") from exc
            if args.command:
                data["command"] = args.command
        else:
            if not args.command:
                raise ConfigError("either a command or --config is required")
            data = {"command": args.command}
        if args.out is not None:
            data["outputDir"] = args.out
        if args.seed is not None:
            data["seed"] = args.seed
        if args.backend is not None:
            data["backend"] = args.backend
        if args.oracle:
            data["oracle"] = True
        if args.jobs is not None:
            data["jobs"] = args.jobs
        elif data.get("command") == "sweep" and "jobs" not in data:
            data["jobs"] = os.cpu_count() or 1
        cfg = RunConfig.from_dict(data)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
