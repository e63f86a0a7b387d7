"""Compare benchmark runs of a parent commit with runs of a change.

    python3 bench/compare.py --parent p1.json p2.json ... --change c1.json c2.json ...

Each file is a document written by ``bench/run.py --out`` (or its
captured standard output).  Run the two commits in alternating pairs
with the same seeds and settings; file ``i`` of each side is pair ``i``.

For every workload x metric the report gives each side's median and
quartiles, the share of pairs the change won (ties count for neither),
and a verdict, using the bounds in ``BENCHMARK.json``:

* ``improved`` -- the change won at least 9 of 10 pairs and the medians
  differ by more than the parent's interquartile range;
* ``unresolved`` -- a side's spread (IQR / median) is wider than the
  bound, unless every change run reads better than every parent run;
* ``regression`` -- the change's median is worse than the parent's by
  more than the bound;
* ``no-regression`` -- otherwise.

Per-layer metrics have no bound and get the verdict ``info``.  The
report also flags a larger failed-operation share and any
``output_digest`` that differs between runs of the same seed: a
speed-only change must leave designs and simulated statistics
identical.  Exit status 1 means a regression or a flag.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import stats

SPEC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
WIN_SHARE = 0.9


def load_document(path: str) -> Dict[str, Any]:
    """A run document from a ``--out`` file or a captured stdout."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        for line in text.splitlines():
            if line.startswith("{") and '"results"' in line:
                return json.loads(line)
    raise ValueError(f"{path}: no benchmark document found")


def load_bounds(path: str) -> Dict[str, Tuple[str, Optional[float]]]:
    """``metric -> (better, bound)``; per-layer metrics have no bound."""
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {entry["name"]: (entry["better"], entry["bound"]) for entry in spec["end_to_end"]}
    for entry in spec["per_layer"]:
        bounds[entry["name"]] = (entry["better"], None)
    return bounds


def collect(documents: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per workload: metric values, failure shares and digests, in file order."""
    table: Dict[str, Dict[str, Any]] = {}
    for document in documents:
        for result in document["results"]:
            entry = table.setdefault(
                result["workload"], {"metrics": {}, "failed_share": [], "digests": {}}
            )
            for name, metric in result["summary"].items():
                entry["metrics"].setdefault(name, []).append(float(metric["value"]))
            entry["failed_share"].append(result["ops_failed"] / max(1, result["ops"]))
            if result.get("digest"):
                entry["digests"].setdefault(result["seed"], set()).add(result["digest"])
    return table


def better(a: float, b: float, direction: str) -> bool:
    return a < b if direction == "lower" else a > b


def verdict(
    parent: Sequence[float], change: Sequence[float], direction: str, bound: Optional[float]
) -> Dict[str, Any]:
    p1, p_mid, p3 = stats.quartiles(parent)
    c1, c_mid, c3 = stats.quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for base, new in pairs if better(new, base, direction))
    win_share = wins / len(pairs) if pairs else 0.0
    row = {
        "parent": {"q1": p1, "median": p_mid, "q3": p3},
        "change": {"q1": c1, "median": c_mid, "q3": c3},
        "win_share": win_share,
    }
    gap = abs(c_mid - p_mid)
    if better(c_mid, p_mid, direction) and win_share >= WIN_SHARE and gap > stats.iqr(parent):
        row["verdict"] = "improved"
        return row
    if bound is None:
        row["verdict"] = "info"
        return row
    spread = max(stats.relative_spread(parent), stats.relative_spread(change))
    all_better = all(better(new, base, direction) for new in change for base in parent)
    worse_by = (c_mid - p_mid) if direction == "lower" else (p_mid - c_mid)
    if spread > bound and not all_better:
        row["verdict"] = "unresolved"
    elif p_mid and worse_by / abs(p_mid) > bound:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "no-regression"
    return row


def compare(
    parent_docs: Sequence[Dict[str, Any]],
    change_docs: Sequence[Dict[str, Any]],
    bounds: Dict[str, Tuple[str, Optional[float]]],
) -> Dict[str, Any]:
    parent, change = collect(parent_docs), collect(change_docs)
    rows: List[Dict[str, Any]] = []
    flags: List[str] = []
    for workload in sorted(set(parent) & set(change)):
        base, new = parent[workload], change[workload]
        for name in sorted(set(base["metrics"]) & set(new["metrics"])):
            direction, bound = bounds.get(name, ("lower", None))
            row = verdict(base["metrics"][name], new["metrics"][name], direction, bound)
            rows.append(dict(row, workload=workload, metric=name, bound=bound))
        if stats.median(new["failed_share"]) > stats.median(base["failed_share"]):
            flags.append(f"{workload}: larger failed-operation share in the change")
        for seed in sorted(set(base["digests"]) | set(new["digests"])):
            digests = base["digests"].get(seed, set()) | new["digests"].get(seed, set())
            if len(digests) > 1:
                flags.append(f"{workload}: output_digest differs between runs of seed {seed}")
    return {"rows": rows, "flags": flags}


def _cell(side: Dict[str, float]) -> str:
    return f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}]"


def render(report: Dict[str, Any]) -> str:
    header = ("workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins")
    lines = ["{:12s} {:40s} {:36s} {:36s} {:>5s}  verdict".format(*header)]
    for row in report["rows"]:
        lines.append(
            f"{row['workload']:12s} {row['metric']:40s} {_cell(row['parent']):36s} "
            f"{_cell(row['change']):36s} {row['win_share']:5.2f}  {row['verdict']}"
        )
    lines += [f"FLAG {flag}" for flag in report["flags"]]
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    report = compare(
        [load_document(path) for path in args.parent],
        [load_document(path) for path in args.change],
        load_bounds(SPEC),
    )
    print(render(report))
    bad = report["flags"] or any(row["verdict"] == "regression" for row in report["rows"])
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
