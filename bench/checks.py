"""Checking one pass's outputs against the stored references.

An item (one verdict config, one scan point) fails when its pass raised,
reported errors or ended with an unexpected exit status, or when its
verdict, stable roots, CSV hash or exact coefficients differ from the
reference.  A stable root counts as different when it moved more than
ROOT_TOL relative to the reference, a tenth of the ladder's own drift
tolerance (1e-8): a root that moves that far is not the same evidence.
"""

from __future__ import annotations

ROOT_TOL = 1e-9


def root_deviation(roots, ref_roots):
    """Largest |root - ref| / (1 + |ref|), pairing each ref with its nearest root."""
    pool = [complex(re, im) for re, im in roots]
    worst = 0.0
    for re, im in ref_roots:
        if not pool:
            break
        ref = complex(re, im)
        best = min(range(len(pool)), key=lambda i: abs(pool[i] - ref))
        worst = max(worst, abs(pool.pop(best) - ref) / (1.0 + abs(ref)))
    return worst


def item_problems(got, expected):
    """(problems, root deviation) of one item against its reference."""
    if got is None:
        return ["missing from the output"], 0.0
    problems = []
    if got["verdict"] != expected["verdict"]:
        problems.append(f"verdict {got['verdict']} != {expected['verdict']}")
    roots, ref_roots = got["stable_roots"], expected["stable_roots"]
    if len(roots) != len(ref_roots):
        problems.append(f"{len(roots)} stable roots != {len(ref_roots)}")
    deviation = root_deviation(roots, ref_roots)
    if deviation > ROOT_TOL:
        problems.append(f"stable root moved by {deviation:.3g} relative")
    for key in ("csv_sha256", "coefficients"):
        if key in expected and got.get(key) != expected[key]:
            problems.append(f"{key} differs from the reference")
    return problems, deviation


def check_pass(result, reference):
    """Score one pass: attempted, failed, max root deviation, stable roots, problems."""
    expected = reference["items"]
    items = result.get("items", {})
    pass_problems = []
    if result.get("raised"):
        pass_problems.append(f"raised {result['raised']}")
    if result.get("status") != reference["status"]:
        pass_problems.append(f"exit status {result.get('status')} != {reference['status']}")
    pass_problems += [f"report error: {e}" for e in result.get("errors", [])]
    pass_problems += [f"unexpected item {key}" for key in items if key not in expected]

    failed, worst, problems = 0, 0.0, []
    for key, ref in expected.items():
        item, deviation = item_problems(items.get(key), ref)
        worst = max(worst, deviation)
        if item or pass_problems:
            failed += 1
        problems += [f"{key}: {p}" for p in item]
    stable = sum(len(item["stable_roots"]) for item in items.values())
    return len(expected), failed, worst, stable, pass_problems + problems
