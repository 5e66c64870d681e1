"""Paper-layout rendering of experiment results.

Reproduces the visual structure of the paper's Tables 1-4 — rows are
the coordinated-tree methods (M1/M2/M3), columns are algorithm x port
configuration — and a summary block for Figure 8 (saturation
throughputs and minimal latencies per series).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.figure8 import Figure8Result
from repro.experiments.tables import TABLE_METRICS, TablesResult
from repro.util.tables import format_table


def render_paper_table(
    result: TablesResult,
    metric: str,
    algorithms: Sequence[str],
    ports_list: Sequence[int],
    methods: Sequence[str] = ("M1", "M2", "M3"),
) -> str:
    """One paper table (rows: methods; columns: algorithm x ports)."""
    number, title = TABLE_METRICS[metric]
    headers = [""] + [
        f"{alg} {ports}-port" for alg in algorithms for ports in ports_list
    ]
    rows: List[List[object]] = []
    for method in methods:
        row: List[object] = [method]
        for alg in algorithms:
            for ports in ports_list:
                try:
                    row.append(round(result.value(metric, alg, method, ports), 6))
                except KeyError:
                    row.append("-")
        rows.append(row)
    return format_table(
        headers,
        rows,
        title=(
            f"Table {number} ({result.kind}, preset={result.preset}, "
            f"{result.samples} samples): {title}"
        ),
    )


def render_all_tables(
    result: TablesResult,
    algorithms: Sequence[str],
    ports_list: Sequence[int],
    methods: Sequence[str] = ("M1", "M2", "M3"),
) -> str:
    """Tables 1-4 in paper order, separated by blank lines."""
    metrics = sorted(TABLE_METRICS, key=lambda m: TABLE_METRICS[m][0])
    return "\n\n".join(
        render_paper_table(result, m, algorithms, ports_list, methods)
        for m in metrics
    )


def render_figure8_summary(result: Figure8Result) -> str:
    """Per-series saturation throughput and unloaded latency."""
    headers = ["series", "saturation throughput", "min latency"]
    rows = []
    for name, pts in sorted(result.series.items()):
        if not pts:
            rows.append([name, "-", "-"])
            continue
        rows.append(
            [
                name,
                round(max(x for x, _ in pts), 6),
                round(min(y for _, y in pts), 2),
            ]
        )
    return format_table(
        headers,
        rows,
        title=(
            f"Figure 8 summary ({result.ports}-port, preset={result.preset})"
        ),
    )


def winners(result: TablesResult, ports_list: Sequence[int]) -> Dict[str, str]:
    """Which algorithm wins each metric (paper Remark 2 check).

    For hot spots and traffic load smaller is better; for node and
    leaves utilization larger is better.  Returns
    ``{metric: "down-up" | "l-turn" | "tie"}`` judged on the mean over
    methods and port configurations.
    """
    smaller_better = {"traffic_load", "hot_spot_degree"}
    out: Dict[str, str] = {}
    for metric in TABLE_METRICS:
        means: Dict[str, List[float]] = {}
        for (m, alg, method, ports), value in result.values.items():
            if m == metric and ports in ports_list:
                means.setdefault(alg, []).append(value)
        if len(means) < 2:
            continue
        avg = {alg: sum(v) / len(v) for alg, v in means.items()}
        best = min(avg, key=avg.get) if metric in smaller_better else max(
            avg, key=avg.get
        )
        vals = sorted(avg.values())
        out[metric] = "tie" if abs(vals[0] - vals[-1]) < 1e-12 else best
    return out
