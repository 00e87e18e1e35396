"""rotorzeros benchmark: four verdict workloads, end-to-end and per layer.

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

Every pass runs in a fresh interpreter (``child.py``), because every CLI
invocation starts with empty per-process caches.  A run first times
set-up alone a few times, then runs as many passes as fit in
``--seconds`` (at least one), checks every pass against ``refs/<workload>.json``
and prints one line per metric, then a JSON object as the last line.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes (at least one of each)
and reports the per-layer metrics; spans go to ``results/``.
``--write-refs`` stores the outputs of one pass as the workload's
references; only a deliberate benchmark change does that.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check_pass
from spans import HOOKS, LAYERS, layer_self_times
from workloads import WORKLOADS, make_inputs, moments_needed, steps_needed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
REFS = HERE / "refs"

SETUP_SAMPLES = 3  # set-up-only interpreters per run, besides each pass's own
RUN_BUDGET_S = 170.0  # no pass starts that would end a run later than this
MIN_TIMEOUT_S = 30.0  # a pass is killed after the rest of the budget, or this


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, no references, a dead pass)."""


def run_child(spec_path, mode, pass_dir, timeout):
    """Run child.py once; return its result plus the CPU and peak RSS of its process tree."""
    pass_dir.mkdir(parents=True)
    result_path = pass_dir / "result.json"
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(pass_dir))
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path), repr(t_spawn), mode],
        cwd=pass_dir,
        env=env,
        stdout=sys.stderr,
        start_new_session=True,
    )
    # a pass that overruns is killed with its pool workers (one process group)
    watchdog = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    try:
        # wait4 reports the rusage of the child and every process it reaped
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.is_file():
        raise BenchError(f"{mode} child exited with status {proc.returncode}")
    result = json.loads(result_path.read_text())
    if Path(result["package"]).resolve().parent.parent != SRC.resolve():
        raise BenchError(f"pass imported rotorzeros from {result['package']}, not from {SRC}")
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    return result


def run_metadata(meta):
    """Versions and machine facts from a set-up pass, plus the source size."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    lines = sum(len(p.read_text().splitlines()) for p in (SRC / "rotorzeros").glob("*.py"))
    return {"git_sha": sha, **meta, "src_lines": lines}


def measure(name, seed, seconds, trace, work):
    """Set-up samples, then as many passes as fit in ``seconds`` (at least one)."""
    work.mkdir(parents=True, exist_ok=True)
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps(make_inputs(name, seed)))
    start = time.monotonic()

    def remaining():
        return RUN_BUDGET_S - (time.monotonic() - start)

    def timeout():
        return max(remaining(), MIN_TIMEOUT_S)

    setups = [run_child(spec_path, "setup", work / f"setup{i}", timeout()) for i in range(SETUP_SAMPLES)]
    passes, durations = [], []
    t_measure = time.monotonic()
    modes = ("pass", "trace") if trace else ("pass",)
    while True:
        mode = modes[len(passes) % len(modes)]
        t0 = time.monotonic()
        result = run_child(spec_path, mode, work / f"pass{len(passes)}", timeout())
        durations.append(time.monotonic() - t0)
        result["mode"] = mode
        passes.append(result)
        if len(passes) < len(modes):
            continue  # every mode runs at least once
        expected = statistics.mean(durations)
        if time.monotonic() - t_measure + expected > seconds or remaining() < 1.2 * max(durations):
            break
    return setups, passes


def end_to_end(setups, passes, stables):
    untraced = [(p, s) for p, s in zip(passes, stables) if p["mode"] == "pass"]
    values = {
        "setup_s": statistics.median([r["setup_s"] for r in setups + passes]),
        "wall_s": statistics.median([p["wall_s"] for p, _ in untraced]),
        "cpu_s": statistics.median([p["cpu_s"] for p, _ in untraced]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p, _ in untraced]),
        "stable_roots": statistics.median([s for _, s in untraced]),
    }
    return declared_metrics("end_to_end", values)


def per_layer(name, passes, failed, attempted, deviation):
    """Per-layer metrics: medians over the traced passes of this run."""
    traced = [p["trace"] for p in passes if p["mode"] == "trace"]
    untraced_wall = statistics.median([p["wall_s"] for p in passes if p["mode"] == "pass"])
    traced_wall = statistics.median([p["wall_s"] for p in passes if p["mode"] == "trace"])
    rows = []
    for t in traced:
        calls, self_s = layer_self_times([tuple(s) for s in t["spans"]])
        counts = t["counts"]
        row = {}
        for layer in LAYERS:
            row[f"{layer}.calls"] = calls[layer]
            row[f"{layer}.self_s"] = self_s[layer]
            row[f"{layer}.share"] = self_s[layer] / t["wall_s"]
        steps, moments = steps_needed(name), moments_needed(name)
        reported = counts.get("zeros.reported_roots", 0)
        row.update(
            {
                "recursion.s_per_step": self_s["recursion"] / steps if steps else 0.0,
                "measures.quad_calls": counts.get("measures.quad_calls", 0),
                "measures.profile_points": counts.get("measures.profile_points", 0),
                "measures.points_per_moment": counts.get("measures.profile_points", 0) / moments if moments else 0.0,
                "zeros.find_roots_calls": counts.get("zeros.find_roots_calls", 0),
                "zeros.nonconverged": counts.get("zeros.nonconverged", 0),
                "zeros.stable_ratio": counts.get("zeros.stable_roots", 0) / reported if reported else 0.0,
                "cli.artifact_bytes": t["artifact_bytes"],
                "cli.pool_wait_s": counts.get("cli.pool_wait_s", 0.0),
                "cli.worker_cpu_s": t["worker_cpu_s"],
                "trace.wall_s": t["wall_s"],
                "trace.untraced_s": t["wall_s"] - sum(self_s.values()),
            }
        )
        for hook in t["missing"]:
            for metric in HOOKS[hook]:
                row[metric] = None
        rows.append(row)
    values = {key: _median_or_missing([row[key] for row in rows]) for key in rows[0]}
    values["trace.overhead_ratio"] = traced_wall / untraced_wall - 1.0
    values["check.fail_ratio"] = failed / attempted
    values["check.root_rel_dev"] = deviation
    return declared_metrics("per_layer", values)


def _median_or_missing(values):
    return None if any(v is None for v in values) else statistics.median(values)


def declared_metrics(kind, values):
    """``values`` in the order and with the units BENCHMARK.json declares."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    if {m["name"] for m in declared} != set(values):
        raise BenchError(f"computed {kind} metrics differ from BENCHMARK.json")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def write_refs(name, work):
    _, passes = measure(name, 0, 0, False, work)
    result = passes[0]
    if result["raised"] or result["errors"] or not result["items"]:
        raise BenchError(f"will not store a failing pass as reference: {result['raised'] or result['errors']}")
    REFS.mkdir(exist_ok=True)
    reference = {"workload": name, "status": result["status"], "items": result["items"]}
    (REFS / f"{name}.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"stored {len(result['items'])} reference items for {name}", file=sys.stderr)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-refs", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "rotorzeros" / "__init__.py").is_file():
        print(f"benchmark error: no rotorzeros sources under {SRC}", file=sys.stderr)
        return 2
    work = RESULTS / f"work-{os.getpid()}"
    try:
        if args.write_refs:
            write_refs(args.workload, work)
            return 0
        ref_path = REFS / f"{args.workload}.json"
        if not ref_path.is_file():
            raise BenchError(f"no reference file {ref_path}")
        reference = json.loads(ref_path.read_text())
        setups, passes = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = failed = 0
    deviation, stables = 0.0, []
    for index, result in enumerate(passes):
        n, bad, dev, stable, problems = check_pass(result, reference)
        attempted, failed, deviation = attempted + n, failed + bad, max(deviation, dev)
        stables.append(stable)
        for problem in problems:
            print(f"pass {index}: {problem}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(args.workload, passes, failed, attempted, deviation)
        spans_path = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
        spans = [[run, *s] for run, p in enumerate(passes) if p["mode"] == "trace" for s in p["trace"]["spans"]]
        spans_path.write_text(json.dumps({"fields": ["run", "name", "layer", "start", "end", "parent"], "spans": spans}))
        if WORKLOADS[args.workload].get("config", {}).get("command") == "sweep":
            print("note: spans inside sweep pool workers are not recorded; layer times cover the parent only")
    else:
        metrics = end_to_end(setups, passes, stables)
    meta = run_metadata(setups[0]["meta"])
    samples = [{k: p[k] for k in ("mode", "setup_s", "wall_s", "cpu_s", "peak_rss_mb")} for p in passes]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "meta": meta,
              "setup_only_s": [r["setup_s"] for r in setups], "passes": samples, "metrics": metrics}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"{args.workload}: {len(passes)} passes, {len(setups)} set-up-only samples, "
          f"{failed} of {attempted} items failed, max root deviation {deviation:.3g}")
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
