"""One benchmark pass in a fresh interpreter.

    python3 child.py SPEC RESULT T_SPAWN MODE

SPEC is the workload's input file (see ``workloads.make_inputs``), RESULT
the JSON file this writes, T_SPAWN the parent's ``time.monotonic()`` just
before it started this process, and MODE one of ``setup`` (set-up only),
``pass`` (untraced pass) or ``trace`` (traced pass).  Set-up is import,
config parsing and measure validation; its time runs from T_SPAWN, so it
includes interpreter start-up.  CLI artifacts go to ``out/`` in the
working directory.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def main(argv):
    spec_path, result_path, t_spawn, mode = argv[1], argv[2], float(argv[3]), argv[4]
    spec = json.loads(Path(spec_path).read_text())

    from fractions import Fraction

    import rotorzeros
    from rotorzeros import cli, laguerre, measures, recursion, zeros

    if spec["kind"] == "cli":
        config_path = Path("config.json")
        config_path.write_text(json.dumps(spec["config"]))
        measure = cli.RunConfig.from_dict(json.loads(config_path.read_text())).measure
    else:
        measure = measures.RadialMeasure.sphere(Fraction(spec["radius"]))
    if not measures.validate_measure(measure).passed:
        raise SystemExit(f"benchmark measure failed validation: {measure.label}")
    setup_s = time.monotonic() - t_spawn
    result = {"setup_s": setup_s, "package": rotorzeros.__file__}
    if mode == "setup":
        result["meta"] = _metadata()
        _write(result_path, result)
        return 0

    modules = {"cli": cli, "laguerre": laguerre, "zeros": zeros, "recursion": recursion, "measures": measures}
    for name in ("polys", "oracles", "geometry"):
        modules[name] = sys.modules[f"rotorzeros.{name}"]
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install_spans(tracer, modules)
        spans.install_counters(tracer, modules)
    captured = _install_capture(spec, modules)

    trace_start = tracer.clock() if tracer else None
    raised = None
    status = None
    reports = {}
    try:
        if spec["kind"] == "cli":
            status = cli.main(["--config", str(config_path)])
        else:
            J = Fraction(spec["J"])
            for D in spec["D"]:
                reports[D] = zeros.stabilize_chain(
                    spec["N"], D, J, measure, spec["degreeLadder"], field="rational"
                )
    except Exception as exc:  # a raising item is a counted failure, not a crash
        raised = f"{type(exc).__name__}: {exc}"
    t_done = time.monotonic()
    trace_end = tracer.clock() if tracer else None

    result.update(
        wall_s=t_done - t_spawn,
        status=status,
        raised=raised,
        errors=[],
        items={},
    )
    if raised is None:
        if spec["kind"] == "cli":
            _collect_cli(spec, captured, result)
        else:
            _collect_api(reports, captured, result)
    if tracer is not None:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        result["trace"] = {
            "wall_s": trace_end - trace_start,
            "spans": [[n, layer, s - trace_start, e - trace_start, p] for n, layer, s, e, p in tracer.spans],
            "counts": dict(tracer.counts),
            "missing": tracer.missing,
            "worker_cpu_s": usage.ru_utime + usage.ru_stime,
            "artifact_bytes": sum(f.stat().st_size for f in Path("out").glob("*") if f.is_file())
            if Path("out").is_dir()
            else 0,
        }
    _write(result_path, result)
    return 0


def _install_capture(spec, modules):
    """Record the outputs the references check but the CLI does not write.

    The scan's stable roots come from its ``stabilize_series`` reports (one
    per a, in scan order); the exact chain's coefficients from
    ``phi_chain``.  Recording keeps references to the outputs only.
    """
    from spans import replace_everywhere

    captured = []
    if spec.get("config", {}).get("command") == "counterexample-scan":
        target = modules["laguerre"].stabilize_series
    elif spec["kind"] == "api":
        target = modules["zeros"].phi_chain
    else:
        return captured

    def capture(*args, **kwargs):
        out = target(*args, **kwargs)
        captured.append(out)
        return out

    replace_everywhere(modules, target, capture)
    return captured


def _stable(report):
    return [[z.real, z.imag] for z, s in zip(report.roots, report.stable) if s]


def _collect_cli(spec, captured, result):
    out = Path("out")
    if not (out / "report.json").is_file():
        result["errors"].append("the run wrote no report.json")
        return
    report = json.loads((out / "report.json").read_text())
    result["errors"] = report["errors"]
    verdicts = report["verdicts"]
    items = result["items"]
    if spec["config"]["command"] == "counterexample-scan":
        if len(captured) != len(verdicts):
            result["errors"].append(
                f"captured {len(captured)} stabilize_series reports for {len(verdicts)} scan points"
            )
            return
        for verdict, rep in zip(verdicts, captured):
            items[f"a={verdict['a']:g}"] = {"verdict": verdict["overall"], "stable_roots": _stable(rep)}
        return
    for verdict in verdicts:
        N, D, J = verdict["N"], verdict["D"], float(verdict["J"])
        path = out / f"zeros_{N}_{D}_{J:g}.csv"
        if not path.is_file():
            continue  # a missing item is counted against the reference
        with path.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        item = items[f"N={N} D={D} J={J:g}"] = {
            "verdict": verdict["overall"],
            "stable_roots": [[float(r["re_zeta"]), float(r["im_zeta"])] for r in rows if r["stable"] == "1"],
        }
        if spec["config"]["command"] == "sweep":
            # the pool must reproduce the serial CSVs byte for byte
            item["csv_sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()


def _collect_api(reports, captured, result):
    coefficients = {}
    for chain in captured:
        for series in chain.values():
            key = f"N={series.chain_length} D={series.dimension}"
            coefficients.setdefault(key, {})[str(series.truncation_degree)] = {
                "pi_power": str(series.pi_power),
                "coefficients": [str(c) for c in series.coefficients],
            }
    for D, by_n in reports.items():
        for N, rep in by_n.items():
            key = f"N={N} D={D}"
            result["items"][key] = {
                "verdict": rep.overall,
                "stable_roots": _stable(rep),
                "coefficients": coefficients.get(key, {}),
            }


def _metadata():
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
    }


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None when not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _write(path, data):
    Path(path).write_text(json.dumps(data))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
