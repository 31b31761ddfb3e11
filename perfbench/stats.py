"""Medians, quartiles and the compare mode over recorded result sets."""

from __future__ import annotations

import json
import statistics
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one sample)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def summary(values: Sequence[float]) -> Dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# --------------------------------------------------------------------- #
# Compare mode
# --------------------------------------------------------------------- #


def read_result_set(path: str) -> List[Dict]:
    """Run records written by ``run.py --out`` (one JSON object a line)."""
    records = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def _samples(records: Iterable[Dict], workload: str, trace: int) -> Dict[str, List[float]]:
    by_metric: Dict[str, List[float]] = {}
    for record in records:
        if record["workload"] != workload or int(record["trace"]) != trace:
            continue
        for name, metric in record["metrics"].items():
            by_metric.setdefault(name, []).append(float(metric["value"]))
    return by_metric


def _verdict(
    delta: float, spread_a: float, spread_b: float, bound: float, better: str
) -> str:
    if max(spread_a, spread_b) > bound:
        return "unresolved (spread wider than bound)"
    worse = delta > 0 if better == "lower" else delta < 0
    if abs(delta) <= bound:
        return "within bound"
    return "REGRESSED" if worse else "improved"


def _fmt(summary_: Optional[Dict[str, float]]) -> str:
    if summary_ is None:
        return f"{'-':>34s}"
    return (
        f"{summary_['median']:12.6g} [{summary_['q1']:.6g}, {summary_['q3']:.6g}]"
    ).rjust(34)


def compare(spec: Dict, records_a: List[Dict], records_b: List[Dict]) -> str:
    """Per workload: end-to-end medians/quartiles with verdicts, then
    per-layer median deltas (no bound, no verdict)."""
    workloads = [w["name"] for w in spec["workloads"]]
    lines: List[str] = []
    for workload in workloads:
        a0, b0 = _samples(records_a, workload, 0), _samples(records_b, workload, 0)
        a1, b1 = _samples(records_a, workload, 1), _samples(records_b, workload, 1)
        if not (a0 or b0 or a1 or b1):
            continue
        lines.append(f"== {workload}")
        lines.append(
            f"{'metric':28s} {'A median [q1, q3]':>34s} {'B median [q1, q3]':>34s} "
            f"{'delta':>8s}  verdict"
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in a0 or name not in b0:
                lines.append(f"{name:28s} missing on one side")
                continue
            sa, sb = summary(a0[name]), summary(b0[name])
            delta = (sb["median"] - sa["median"]) / abs(sa["median"])
            verdict = _verdict(
                delta, spread(a0[name]), spread(b0[name]), metric["bound"], metric["better"]
            )
            lines.append(
                f"{name:28s} {_fmt(sa)} {_fmt(sb)} {100 * delta:+7.2f}%  {verdict}"
            )
        layer_names = [m["name"] for m in spec["per_layer"]]
        shown = False
        for name in layer_names:
            if name not in a1 or name not in b1:
                continue
            sa, sb = summary(a1[name]), summary(b1[name])
            if sa["median"] == 0 and sb["median"] == 0:
                continue
            if not shown:
                lines.append("  per-layer (traced runs; no bound)")
                shown = True
            delta = (
                (sb["median"] - sa["median"]) / abs(sa["median"])
                if sa["median"]
                else float("inf")
            )
            lines.append(
                f"  {name:26s} {_fmt(sa)} {_fmt(sb)} {100 * delta:+7.2f}%"
            )
    return "\n".join(lines) if lines else "no common workloads in the two result sets"
