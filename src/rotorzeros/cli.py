"""Command-line front end: configuration, sweeps, reports, golden files.

A run is described by a JSON config; every artifact CSV gets a metadata
sidecar carrying the config hash, and a run-level ``report.json`` collects
verdicts, timings, and versions.  Identical config + seed produces
byte-identical CSV artifacts.

Exit status: 0 on completion, 1 when any Violated verdict occurs inside a
theorem-covered regime (even D, J > 0, certified measure), 2 on
configuration errors, 3 when a numeric failure was recorded in the
report's ``errors`` and no status 1 applies.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import hashlib
import importlib.metadata
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import self_test
from .laguerre import counterexample_scan, violation_witnesses
from .measures import MeasureError, RadialMeasure, _validated, laplace_transform
from .oracles import phi_modal
from .polys import RATIONAL
from .recursion import phi_chain
from .zeros import AXIS_TOL, DRIFT_TOL, VIOLATED, solved_rungs, stabilize_chain, stable_coefficient_count

SCHEMA_VERSION = 1

# errors a run records as numeric failures (exit status 3) instead of raising
NUMERIC_ERRORS = (MeasureError, RuntimeError, OverflowError, np.linalg.LinAlgError)

COMMANDS = ("laplace", "phi", "verify", "oracle-compare", "geometry-selftest",
            "counterexample-scan", "sweep")

# commands that stabilize zeros over the (N, D, J) grid; they differ only in
# sweep's default of one worker per CPU
GRID_COMMANDS = ("verify", "sweep")

# commands that never read the config's measure, each with the config keys it
# does read besides "command": they skip the measure's validation, have no
# rational backend, and hash and require only those keys
MEASURELESS = {
    "geometry-selftest": ("seed",),
    "counterexample-scan": ("D", "degreeLadder", "tolerances"),
}

# the keys a config file may set, top level and inside "tolerances"
CONFIG_KEYS = ("command", "measure", "N", "D", "J", "degreeLadder", "tolerances",
               "outputDir", "seed", "backend", "jobs", "y")
TOLERANCE_KEYS = ("axis", "drift")
# the keys that hold JSON lists, and those whose values (or entries) are integers
LIST_KEYS = ("N", "D", "J", "degreeLadder", "y")
INTEGER_KEYS = ("N", "D", "degreeLadder", "jobs", "seed")


class ConfigError(ValueError):
    """Invalid run configuration (exit status 2)."""


def _first_bool(value, key=""):
    """The key of the first JSON boolean inside value, or None."""
    if isinstance(value, bool):
        return key
    if isinstance(value, dict):
        items = ((f"{key}.{k}" if key else str(k), v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((key, v) for v in value)
    else:
        return None
    for k, v in items:
        found = _first_bool(v, k)
        if found is not None:
            return found
    return None


def _check_types(data):
    """Reject the values that from_dict's conversions would coerce without a word.

    A string or an object where a list belongs would be iterated, a float
    where an integer belongs truncated, and a boolean read as 0 or 1; no
    config value is a boolean.
    """
    key = _first_bool(data)
    if key is not None:
        raise ConfigError(f"{key} must not be a boolean")
    for key in LIST_KEYS:
        if key in data and not isinstance(data[key], list):
            raise ConfigError(f"{key} must be a JSON list, not {type(data[key]).__name__}")
    for key in INTEGER_KEYS:
        if key in data:
            values = data[key] if key in LIST_KEYS else [data[key]]
            if not all(isinstance(v, int) for v in values):
                raise ConfigError(f"{key} must hold integers, not {data[key]!r}")


def _finite(x):
    """Whether x is a finite float, or a Fraction inside the float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


@dataclass
class RunConfig:
    command: str
    measure: RadialMeasure
    Ns: tuple = (2,)
    Ds: tuple = (2,)
    Js: tuple = (0.5,)
    degree_ladder: tuple = (30, 40)
    axis_tol: float = AXIS_TOL
    drift_tol: float = DRIFT_TOL
    output_dir: str = "out"
    seed: int = 0
    backend: str = "float64"
    jobs: int = 1
    ys: tuple = (0.5, 1.0, 2.0)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError(f"a config must be a JSON object, not {type(data).__name__}")
        tolerances = data.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ConfigError(f"tolerances must be an object, not {type(tolerances).__name__}")
        unknown = [str(k) for k in data if k not in CONFIG_KEYS]
        unknown += [f"tolerances.{k}" for k in tolerances if k not in TOLERANCE_KEYS]
        if unknown:
            raise ConfigError(f"unknown config key: {', '.join(map(repr, unknown))}")
        _check_types(data)
        try:
            command = data["command"]
            if command not in COMMANDS:
                raise ConfigError(f"unknown command {command!r}")
            backend = str(data.get("backend", cls.backend))
            exact = backend == RATIONAL
            measure = RadialMeasure.from_json(
                data.get("measure", {"kind": "sphere", "radius": 1.0}), exact=exact
            )
            coupling = (lambda j: Fraction(str(j))) if exact else float
            default_D = (1,) if command == "counterexample-scan" else cls.Ds
            jobs = (os.cpu_count() or 1) if command == "sweep" else cls.jobs
            cfg = cls(
                command=command,
                measure=measure,
                Ns=tuple(data.get("N", cls.Ns)),
                Ds=tuple(data.get("D", default_D)),
                Js=tuple(coupling(j) for j in data.get("J", cls.Js)),
                degree_ladder=tuple(data.get("degreeLadder", cls.degree_ladder)),
                axis_tol=float(tolerances.get("axis", cls.axis_tol)),
                drift_tol=float(tolerances.get("drift", cls.drift_tol)),
                output_dir=str(data.get("outputDir", cls.output_dir)),
                seed=data.get("seed", cls.seed),
                backend=backend,
                jobs=data.get("jobs", jobs),
                ys=tuple(float(y) for y in data.get("y", cls.ys)),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError, MeasureError) as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc
        cfg.validate()
        return cfg

    def validate(self):
        read = MEASURELESS.get(self.command, CONFIG_KEYS)
        ladder, scan = self.degree_ladder, "counterexample-scan"
        # artifacts are named by _fmt(J), so two couplings must differ there
        J_names = [_fmt(j) for j in self.Js if _finite(j)]
        # (key, fault, message): a key the command never reads is not checked
        checks = (
            ("N", not self.Ns, "list N must be nonempty"),
            ("D", not self.Ds, "list D must be nonempty"),
            ("J", not self.Js, "list J must be nonempty"),
            ("degreeLadder", not ladder, "list degreeLadder must be nonempty"),
            ("degreeLadder", len(ladder) < 2 and self.command in (*GRID_COMMANDS, scan),
             "degreeLadder needs at least two stages"),
            ("D", self.command == scan and self.Ds != (1,),
             "counterexample-scan runs at D = 1 only"),
            ("degreeLadder", any(b <= a for a, b in zip(ladder, ladder[1:])),
             "degreeLadder must be strictly increasing"),
            ("degreeLadder", any(m < 0 for m in ladder),
             "degreeLadder entries must be nonnegative"),
            ("J", not all(_finite(j) for j in self.Js), "couplings J must be finite"),
            ("measure", self.measure.kind == "sphere" and not _finite(self.measure.radius),
             "a sphere radius must be finite"),
            ("measure", self.measure.kind == "tabulated" and 1 in self.Ds,
             "tabulated profiles do not support D=1 (singular moment at s=0)"),
            ("y", not all(math.isfinite(y) for y in self.ys), "oracle points y must be finite"),
            ("jobs", self.jobs < 1, "jobs must be at least 1"),
            ("tolerances", not 0 <= self.axis_tol < 1, "tolerances.axis must lie in [0, 1)"),
            ("tolerances", not 0 <= self.drift_tol < 1, "tolerances.drift must lie in [0, 1)"),
            ("N", any(n < 1 for n in self.Ns), "chain lengths must be positive"),
            ("D", any(d < 1 for d in self.Ds), "dimensions must be positive"),
            ("N", len(set(self.Ns)) < len(self.Ns), "N entries must be distinct"),
            ("D", len(set(self.Ds)) < len(self.Ds), "D entries must be distinct"),
            ("J", len(set(J_names)) < len(J_names),
             "J entries must differ in their first 6 significant digits, which name the artifacts"),
        )
        for key, fault, message in checks:
            if fault and key in read:
                raise ConfigError(message)
        if self.backend not in ("float64", "rational"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.backend == RATIONAL:
            if self.command in MEASURELESS:
                raise ConfigError(f"{self.command} has no rational backend")
            if self.measure.kind != "sphere":
                raise ConfigError("rational backend supports sphere measures only")
            if any(d % 2 for d in self.Ds):
                raise ConfigError("rational backend requires even D (integer Gamma)")

    def config_hash(self):
        """16 hex digits of a sha256 of the config; a measureless command hashes only what it reads."""
        fields = {
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
        }
        if self.command in MEASURELESS:
            fields = {k: fields[k] for k in ("command", *MEASURELESS[self.command])}
        blob = json.dumps(fields, sort_keys=True)
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


@contextlib.contextmanager
def _at(D, J):
    """Name the (D, J) item in a numeric failure raised inside."""
    try:
        yield
    except NUMERIC_ERRORS as exc:
        raise RuntimeError(f"D={D}, J={_fmt(J)}: {exc}") from exc


def _stabilize_task(cfg: RunConfig, D, J):
    """Stabilized zeros of every N in cfg.Ns from one (D, J) chain, keyed (N, D, J)."""
    with _at(D, J):
        reports = stabilize_chain(
            cfg.Ns, D, J, cfg.measure, solved_rungs(cfg.degree_ladder),
            tol=cfg.axis_tol, drift_tol=cfg.drift_tol, field=cfg.backend,
        )
    return {(N, D, J): rep for N, rep in reports.items()}


def _oracle_table(cfg: RunConfig) -> str:
    """Side-by-side phi vs the Funk-Hecke modal series of degree 2 M_top (spheres only).

    The oracle's error estimate is its change from the sum of its degree-M_top prefix.
    """
    if cfg.measure.kind != "sphere":
        raise ConfigError("oracle comparisons require a sphere measure")
    M_top = max(cfg.degree_ladder)
    lines = ["N,D,J,y,phi_value,oracle_value,oracle_error,rel_diff,method"]
    for D, J in itertools.product(cfg.Ds, cfg.Js):
        with _at(D, J):
            chain = phi_chain(cfg.Ns, D, J, cfg.measure, M_top, cfg.backend)
            modal = phi_modal(cfg.Ns, D, J, float(cfg.measure.radius), 2 * M_top)
            for N in sorted(chain):
                for y in cfg.ys:
                    series_val = complex(chain[N].evaluate(-(y * y)))
                    oracle = complex(modal[N].evaluate(-(y * y)))
                    error = abs(oracle - np.polyval(modal[N].coefficients[M_top::-1], -(y * y)))
                    rel = float(abs(series_val - oracle) / max(abs(oracle), 1e-300))
                    lines.append(
                        f"{N},{D},{_fmt(J)},{_fmt(y)},{float(series_val.real)!r},"
                        f"{float(oracle.real)!r},{float(error)!r},{rel!r},funk-hecke-modal"
                    )
    return "\n".join(lines) + "\n"


def _one_blas_thread():
    """Cap numpy's bundled OpenBLAS at one thread; a no-op where it is not found.

    The float step's one BLAS call is too small to gain from threads, which
    spin between the step's products and double a run's CPU time.
    """
    try:
        # dlsym on the extension's handle also searches the libraries it loaded
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        set_threads = lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):
        return
    set_threads.argtypes = [ctypes.c_int]
    set_threads.restype = None
    set_threads(1)


def _grid_reports(cfg: RunConfig):
    """stabilize over the (N, D, J) grid, one task per (D, J) sharing its chain across N."""
    Ds, Js = zip(*itertools.product(cfg.Ds, cfg.Js))
    task = functools.partial(_stabilize_task, cfg)
    if cfg.jobs > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs, initializer=_one_blas_thread) as pool:
            parts = list(pool.map(task, Ds, Js))
    else:
        parts = list(map(task, Ds, Js))
    return {key: rep for part in parts for key, rep in part.items()}


def run(cfg: RunConfig) -> int:
    """Execute one configured pipeline; write artifacts; return exit status."""
    outdir = Path(cfg.output_dir)
    cfg_hash = cfg.config_hash()
    t_start = time.perf_counter()
    timings = {}
    verdicts = []
    errors = []
    status = 0

    certified = None  # no certificate for a measure the command never reads
    if cfg.command not in MEASURELESS:
        validation = _validated(cfg.measure)
        if not validation.passed:
            print(f"measure failed validation: {validation.failures()}", file=sys.stderr)
            return 2
        certified = validation.certified_lee_yang

    try:
        if cfg.command == "laplace":
            for D in cfg.Ds:
                v = laplace_transform(cfg.measure, D, max(cfg.degree_ladder), cfg.backend)
                _write_artifact(outdir, f"laplace_{D}.csv", v.to_csv(), cfg_hash)
        elif cfg.command == "phi":
            rungs = solved_rungs(cfg.degree_ladder)
            for D in cfg.Ds:
                for J in cfg.Js:
                    with _at(D, J):
                        chains = [phi_chain(cfg.Ns, D, J, cfg.measure, M, cfg.backend) for M in rungs]
                    for N, series in sorted(chains[-1].items()):
                        lower = chains[0][N] if len(chains) == 2 else None
                        stable = None if lower is None else stable_coefficient_count(lower, series)
                        name = f"phi_{N}_{D}_{_fmt(J)}.csv"
                        _write_artifact(
                            outdir,
                            name,
                            series.to_csv(),
                            cfg_hash,
                            series.metadata(stable_through=stable),
                        )
        elif cfg.command in GRID_COMMANDS:
            reports = _grid_reports(cfg)
            for (N, D, J), rep in sorted(reports.items()):
                in_regime = _theorem_regime(D, J, certified)
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
    except NUMERIC_ERRORS as exc:
        # numeric failures surface in the summary, not as a crash
        errors.append(f"numeric failure: {exc}")

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
            "scipy": importlib.metadata.version("scipy"),
        },
        "measure_certified_lee_yang": certified,
        "exit_status": status,
    }
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return status


def main(argv=None) -> int:
    _one_blas_thread()
    parser = argparse.ArgumentParser(
        prog="rotorzeros",
        description="Lee-Yang zero analysis for isotropic spin chains",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS, help="pipeline to run")
    parser.add_argument("--config", help="JSON config file (flags override its keys)")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="seed for geometry-selftest")
    parser.add_argument("--backend", choices=["float64", "rational"], default=None)
    parser.add_argument("--jobs", type=int, default=None, help="parallel sweep workers")
    args = parser.parse_args(argv)
    flags = {"command": args.command, "outputDir": args.out, "seed": args.seed,
             "backend": args.backend, "jobs": args.jobs}

    try:
        if args.config:
            try:
                data = json.loads(Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"unreadable config: {exc}") from exc
            if not isinstance(data, dict):
                raise ConfigError(f"a config must be a JSON object, not {type(data).__name__}")
        elif args.command:
            data = {}
        else:
            raise ConfigError("either a command or --config is required")
        data.update((key, value) for key, value in flags.items() if value is not None)
        cfg = RunConfig.from_dict(data)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
