"""Check a bench/run.py result line read from stdin.

    python3 bench/run.py ... --trace 1 | tail -n 1 | python3 check_result_line.py [METRIC ...]

Exits 1 unless the line parses as JSON, "correct" is true, every metric value
is a finite number, and each named METRIC is above 0.  A hooked name that no
longer resolves nulls its metric, so a null (or NaN, or Infinity) fails.
"""

import json
import math
import sys


def reject(constant):
    sys.exit(f"result line holds {constant}")


line = json.load(sys.stdin, parse_constant=reject)
metrics = line["metrics"]
bad = [name for name, m in metrics.items()
       if type(m["value"]) not in (int, float) or not math.isfinite(m["value"])]
zero = [name for name in sys.argv[1:] if name not in metrics or name in bad or metrics[name]["value"] <= 0]
print("correct:", line["correct"], "- metrics without a finite value:", bad, "- required above 0 but not:", zero)
sys.exit(0 if line["correct"] is True and not bad and not zero else 1)
