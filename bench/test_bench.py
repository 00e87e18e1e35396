"""Self-checks of the benchmark's own machinery.

    python3 -m pytest bench/test_bench.py

They use synthetic spans, fake modules and the stored references, so they
run in about a second and never time the program.
"""

from __future__ import annotations

import copy
import json
import types
from pathlib import Path

import numpy as np
import pytest

import run
from checks import ROOT_TOL, check_pass
from spans import Tracer, install_counters, install_spans, layer_self_times

REFS = Path(__file__).resolve().parent / "refs"


def _ticks():
    clock = iter(range(1000))
    return lambda: next(clock)


def test_self_time_on_a_nested_tree():
    # cli [0,10] > zeros [1,9] > recursion [2,6] > recursion [3,5]; zeros [6.5,8] under the first zeros
    spans = [
        ("cli.main", "cli", 0.0, 10.0, None),
        ("zeros.stabilize_chain", "zeros", 1.0, 9.0, 0),
        ("recursion.phi_chain", "recursion", 2.0, 6.0, 1),
        ("recursion.phi", "recursion", 3.0, 5.0, 2),
        ("zeros.find_roots", "zeros", 6.5, 8.0, 1),
    ]
    calls, self_s = layer_self_times(spans)
    assert dict(calls) == {"cli": 1, "zeros": 2, "recursion": 2}
    assert self_s["cli"] == pytest.approx(2.0)
    assert self_s["zeros"] == pytest.approx(4.0)  # 8 - 4 - 1.5, plus 1.5
    assert self_s["recursion"] == pytest.approx(4.0)  # same-layer nesting counts once
    assert sum(self_s.values()) == pytest.approx(10.0)


def _module(name, **attrs):
    module = types.ModuleType(f"rotorzeros.{name}")
    for key, value in attrs.items():
        setattr(module, key, value)
    return module


def _function(layer, name, body):
    body.__module__, body.__name__ = f"rotorzeros.{layer}", name
    return body


def test_spans_cover_imported_copies_and_same_layer_calls():
    recursion = _module("recursion")
    recursion.phi = _function("recursion", "phi", lambda: 1)
    recursion.phi_chain = _function("recursion", "phi_chain", lambda: recursion.phi() + 1)
    zeros = _module("zeros", phi_chain=recursion.phi_chain)

    tracer = Tracer(clock=_ticks())
    assert install_spans(tracer, {"recursion": recursion, "zeros": zeros}) == 2
    assert zeros.phi_chain is recursion.phi_chain  # one wrapper under both names
    assert zeros.phi_chain() == 2
    names = [(name, parent) for name, _layer, _s, _e, parent in tracer.spans]
    assert names == [("recursion.phi_chain", None), ("recursion.phi", 0)]
    calls, self_s = layer_self_times(tracer.spans)
    assert calls["recursion"] == 2
    assert self_s["recursion"] == tracer.spans[0][3] - tracer.spans[0][2]


def _reference_pass(name):
    reference = json.loads((REFS / f"{name}.json").read_text())
    result = {"status": reference["status"], "raised": None, "errors": [], "items": copy.deepcopy(reference["items"])}
    return reference, result


def test_matching_outputs_pass():
    for name in ("verify-grid", "counterexample-scan", "exact-chain", "sweep-grid"):
        reference, result = _reference_pass(name)
        attempted, failed, deviation, stable, problems = check_pass(result, reference)
        assert (failed, deviation, problems) == (0, 0.0, [])
        assert attempted == len(reference["items"]) and stable > 0


def test_scan_reference_holds_a_violation():
    reference, _ = _reference_pass("counterexample-scan")
    verdicts = {item["verdict"] for item in reference["items"].values()}
    assert "LeeYangViolated" in verdicts and "LeeYangVerified" in verdicts


def _first_with_roots(items):
    return next(key for key, item in items.items() if item["stable_roots"])


def test_perturbed_root_is_a_failure():
    reference, result = _reference_pass("verify-grid")
    key = _first_with_roots(result["items"])
    root = result["items"][key]["stable_roots"][0]
    root[0] *= 1 + 10 * ROOT_TOL
    attempted, failed, deviation, _, problems = check_pass(result, reference)
    assert failed == 1 and failed / attempted > 0
    assert deviation > ROOT_TOL
    assert any(key in p for p in problems)


def test_perturbed_coefficient_and_hash_are_failures():
    reference, result = _reference_pass("exact-chain")
    item = next(iter(result["items"].values()))
    rung = next(iter(item["coefficients"].values()))
    rung["coefficients"][-1] = "1/3"
    assert check_pass(result, reference)[1] == 1

    reference, result = _reference_pass("sweep-grid")
    next(iter(result["items"].values()))["csv_sha256"] = "0" * 64
    assert check_pass(result, reference)[1] == 1


def test_dropped_item_and_report_error_are_failures():
    reference, result = _reference_pass("counterexample-scan")
    result["items"].pop(next(iter(result["items"])))
    assert check_pass(result, reference)[1] == 1

    reference, result = _reference_pass("counterexample-scan")
    result["errors"] = ["numeric failure: boom"]
    assert check_pass(result, reference)[1] == len(reference["items"])

    reference, result = _reference_pass("verify-grid")
    result["status"] = 1
    assert check_pass(result, reference)[1] == len(reference["items"])


def test_missing_hooked_name_is_reported_missing():
    class RadialMeasure:
        def profile(self, s):
            return s

    measures = _module("measures", RadialMeasure=RadialMeasure, integrate=types.SimpleNamespace(quad=lambda: 0))
    zeros = _module("zeros", stabilize_series=_function("zeros", "stabilize_series", lambda: None))  # no find_roots
    cli = _module("cli")  # no ProcessPoolExecutor
    tracer = Tracer(clock=_ticks())
    install_counters(tracer, {"measures": measures, "zeros": zeros, "cli": cli})
    assert sorted(tracer.missing) == ["cli.ProcessPoolExecutor", "zeros.find_roots"]
    RadialMeasure().profile(np.array([1.0, 2.0, 3.0]))
    RadialMeasure().profile(4.0)
    assert tracer.counts["measures.profile_points"] == 4

    traced = {
        "mode": "trace",
        "wall_s": 2.0,
        "trace": {
            "wall_s": 1.0,
            "spans": [["cli.main", "cli", 0.0, 1.0, None]],
            "counts": dict(tracer.counts),
            "missing": tracer.missing,
            "worker_cpu_s": 0.0,
            "artifact_bytes": 0,
        },
    }
    metrics = run.per_layer("verify-grid", [{"mode": "pass", "wall_s": 1.5}, traced], 0, 24, 0.0)
    for name in ("zeros.find_roots_calls", "zeros.nonconverged", "cli.pool_wait_s"):
        assert metrics[name]["value"] is None
    assert metrics["measures.profile_points"]["value"] == 4
    assert metrics["cli.self_s"]["value"] == 1.0
    assert metrics["trace.untraced_s"]["value"] == 0.0
    assert metrics["trace.overhead_ratio"]["value"] == pytest.approx(2.0 / 1.5 - 1)
