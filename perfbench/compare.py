"""Compare two sets of benchmark results, one row per workload and metric.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds full results appended by `run.py --out` (tracing off).
Runs pair up by workload and seed. The verdict follows the rule the
benchmark was defined with:

  improved    the change wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the parent's
              own quartile spread;
  unresolved  the parent's quartile spread exceeds the metric's bound
              (as a share of its median), unless every run of the change
              beats every run of the parent;
  worse       the change's median is worse than the parent's by more
              than the bound;
  no change   otherwise.

fail_frac has bound 0: any rise in failures reads as worse.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{workload: {seed: [result, ...]}} for untraced results."""
    out: dict = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec.get("trace") == 0:
                out[rec["workload"]][rec["seed"]].append(rec)
    return out


def spread(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], pairs, better: str,
            bound: float) -> tuple[str, int]:
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0: change better
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    q1, med_p, q3 = spread(parent)
    gain = sign * (med_p - statistics.median(change))
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved", wins
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if q3 - q1 > bound * abs(med_p) and not every_run_better:
        return "unresolved", wins
    if -gain > bound * abs(med_p):
        return "worse", wins
    return "no change", wins


def metric_value(rec: dict, name: str) -> float:
    if name == "fail_frac":
        return rec["failed"] / rec["attempted"]
    return rec["metrics"][name]["value"]


def rows(parent: dict, change: dict, metrics: list[dict]):
    for workload in sorted(set(parent) | set(change)):
        seeds = sorted(set(parent.get(workload, {})) & set(change.get(workload, {})))
        if not seeds:
            yield workload, None, "no runs on both sides"
            continue
        for m in metrics:
            p_vals = [metric_value(r, m["name"]) for s in seeds for r in parent[workload][s]]
            c_vals = [metric_value(r, m["name"]) for s in seeds for r in change[workload][s]]
            pairs = [(metric_value(a, m["name"]), metric_value(b, m["name"]))
                     for s in seeds for a, b in zip(parent[workload][s], change[workload][s])]
            result, wins = verdict(p_vals, c_vals, pairs, m["better"], m["bound"])
            yield workload, m, (spread(p_vals), spread(c_vals), wins, len(pairs), result)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = spec["end_to_end"] + [
        {"name": "fail_frac", "unit": "ratio", "better": "lower", "bound": 0.0}]
    parent, change = load(argv[0]), load(argv[1])
    print(f"{'workload':<18} {'metric':<12} {'parent q1/med/q3':>28} "
          f"{'change q1/med/q3':>28} {'wins':>7}  verdict")
    for workload, m, row in rows(parent, change, metrics):
        if m is None:
            print(f"{workload:<18} {row}")
            continue
        (p, c, wins, n, result) = row
        fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
        print(f"{workload:<18} {m['name']:<12} {fmt(p):>28} {fmt(c):>28} "
              f"{wins:>3}/{n:<3}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
