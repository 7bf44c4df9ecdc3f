"""Compare benchmark results of a parent commit and a change.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out`` appends, one per run.  Make
them with the same benchmark code and settings on both commits, at least
ten seeds per workload, alternating which commit runs first.

For each workload and end-to-end metric the table gives both sides'
median and quartiles over runs, the share of seed-paired runs the change
won (ties count for neither side), and a verdict against the metric's
bound in ``BENCHMARK.json``:

- ``improved``: the change won at least nine tenths of the pairs, and its
  median beats the parent's by more than the parent's quartile spread;
- ``unresolved``: the parent's quartile spread exceeds the bound, and
  not every change run beats every parent run;
- ``worse``: the change's median is worse than the parent's by more than
  the bound;
- ``unchanged``: none of the above.

Then come the per-layer ``self_s`` medians of the traced runs, and any
seed whose produced integers differ between the two sides.  Runs that
failed an output check are named and left out of every statistic.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values):
    """(q1, median, q3), as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pairs(parent, change):
    """Zip (seed, value) lists of both sides on common seeds, in seed order."""
    by_seed = defaultdict(lambda: ([], []))
    for seed, value in parent:
        by_seed[seed][0].append(value)
    for seed, value in change:
        by_seed[seed][1].append(value)
    return [pair for seed in sorted(by_seed) for pair in zip(*by_seed[seed])]


def verdict(parent, change, bound, better):
    """Verdict and win share of ``change`` against ``parent``, both [(seed, value)]."""
    sign = 1 if better == "lower" else -1
    p_values = [v for _, v in parent]
    c_values = [v for _, v in change]
    p_q1, p_med, p_q3 = quartiles(p_values)
    c_med = statistics.median(c_values)
    pairs = _pairs(parent, change)
    wins = sum(sign * (c - p) < 0 for p, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    gain = sign * (p_med - c_med)
    if share >= WIN_SHARE and gain > p_q3 - p_q1:
        return "improved", share
    dominates = all(sign * (c - p) < 0 for c in c_values for p in p_values)
    if (p_q3 - p_q1) > bound * abs(p_med) and not dominates:
        return "unresolved", share
    if -gain > bound * abs(p_med):
        return "worse", share
    return "unchanged", share


def _integers(value):
    """Outputs with every float blanked, so only counts and integers compare."""
    if isinstance(value, float):
        return None
    if isinstance(value, dict):
        return {k: _integers(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_integers(v) for v in value]
    return value


def _split(records, out):
    """Correct untraced and traced runs by workload; name the failed ones."""
    untraced, traced = defaultdict(list), defaultdict(list)
    for r in records:
        if not r["correct"]:
            print(f"excluded: {r['workload']} seed {r['seed']} failed "
                  f"{r['failed']}/{r['attempted']} checks {r['errors']}", file=out)
            continue
        (traced if r["trace"] else untraced)[r["workload"]].append(r)
    return untraced, traced


def _fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:10.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def compare(parent_records, change_records, spec, out=sys.stdout):
    p_plain, p_traced = _split(parent_records, out)
    c_plain, c_traced = _split(change_records, out)
    names = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':16} {'metric':12} {'parent median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'delta':>8} {'won':>5}  verdict", file=out)
    for name in names:
        if not p_plain[name] or not c_plain[name]:
            print(f"{name:16} (no correct untraced runs on both sides)", file=out)
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            parent = [(r["seed"], r["metrics"][key]) for r in p_plain[name]]
            change = [(r["seed"], r["metrics"][key]) for r in c_plain[name]]
            result, share = verdict(parent, change, metric["bound"], metric["better"])
            p_med = statistics.median(v for _, v in parent)
            c_med = statistics.median(v for _, v in change)
            delta = (c_med - p_med) / p_med if p_med else float("nan")
            print(f"{name:16} {key:12} {_fmt([v for _, v in parent]):>34} "
                  f"{_fmt([v for _, v in change]):>34} {delta:+8.1%} {share:5.0%}  "
                  f"{result}", file=out)
    print(f"\n{'workload':16} {'per-layer self time':44} {'parent s':>10} "
          f"{'change s':>10} {'delta s':>10}", file=out)
    for name in names:
        if not p_traced[name] or not c_traced[name]:
            continue
        for entry in spec["per_layer"]:
            key = entry["name"]
            if not key.endswith(".self_s"):
                continue
            p = statistics.median(r["metrics"][key] for r in p_traced[name])
            c = statistics.median(r["metrics"][key] for r in c_traced[name])
            if p or c:
                print(f"{name:16} {key:44} {p:10.4f} {c:10.4f} {c - p:+10.4f}", file=out)
    for name in names:
        parent = {r["seed"]: _integers(r["outputs"]) for r in p_plain[name] + p_traced[name]}
        for r in c_plain[name] + c_traced[name]:
            if r["seed"] in parent and _integers(r["outputs"]) != parent[r["seed"]]:
                print(f"outputs differ: {name} seed {r['seed']}", file=out)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="records of the parent commit (JSON lines)")
    p.add_argument("change", help="records of the change (JSON lines)")
    args = p.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    compare(load(args.parent), load(args.change), spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
