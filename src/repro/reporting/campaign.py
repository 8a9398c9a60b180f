"""Rendering of campaign results: summary tables, comparisons, CSV export.

Sits on top of the generic :mod:`repro.reporting.tables` primitives and the
aggregate views a :class:`~repro.dse.campaign.CampaignResult` computes, so
benchmark scripts, notebooks and the ``python -m repro`` CLI can print a
whole campaign in one call — whether the result came from a live
:func:`~repro.experiments.run_experiment` call or was reloaded from a saved
JSON artifact via ``CampaignResult.load``.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence

from .tables import format_table, rows_to_csv

__all__ = [
    "campaign_summary_table",
    "campaign_comparison_table",
    "campaign_to_csv",
    "json_sanitize",
    "jsonable_rows",
    "campaign_report_payload",
]

SUMMARY_COLUMNS = (
    "network",
    "device",
    "points",
    "pareto",
    "best_gops",
    "best_gops_design",
    "best_gops_per_w",
    "min_latency_ms",
)


def campaign_summary_table(result, title: Optional[str] = None, precision: int = 2) -> str:
    """One-line-per-cell summary of a :class:`~repro.dse.CampaignResult`.

    Shows, per (network, device) cell: the number of feasible points, how
    many sit on the per-network Pareto front, and the best
    throughput / power-efficiency / latency picks.
    """
    if title is None:
        title = (
            f"Campaign {result.spec.name!r}: {result.feasible}/{result.evaluations} "
            f"feasible points in {result.elapsed_seconds * 1e3:.1f} ms "
            f"(cache hit rate {result.cache_stats.hit_rate:.0%})"
        )
    return format_table(result.summary_rows(), columns=SUMMARY_COLUMNS, title=title, precision=precision)


def campaign_comparison_table(
    result,
    metric: str = "throughput_gops",
    title: Optional[str] = None,
    precision: int = 2,
) -> str:
    """Networks x devices table of the best ``metric`` per cell."""
    if title is None:
        title = f"Best {metric} by network and device"
    rows = result.comparison_rows(metric)
    return format_table(rows, title=title, precision=precision)


def json_sanitize(value: Any) -> Any:
    """``value`` made strict-JSON-safe: non-finite floats become ``None``.

    Recurses through dicts and lists/tuples.  The comparison view marks
    empty (network, device) cells with ``NaN``, which ``json.dumps``
    emits as the non-standard ``NaN`` token most HTTP clients reject —
    this is the single implementation of the scrub policy, shared by
    :func:`jsonable_rows` and the ``repro.service`` HTTP server.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: json_sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_sanitize(item) for item in value]
    return value


def jsonable_rows(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Row tables made strict-JSON-safe (see :func:`json_sanitize`)."""
    return [json_sanitize(row) for row in rows]


def campaign_report_payload(result, metric: Optional[str] = None) -> Dict[str, Any]:
    """One JSON-ready report of a campaign: the summary and comparison
    views a :class:`~repro.dse.CampaignResult` computes, as plain row
    dicts instead of formatted tables — what the ``repro.service`` HTTP
    server returns for a stored result's ``/report`` endpoint.

    ``metric`` picks the comparison metric (defaults to the embedded
    spec's first metric).
    """
    if metric is None:
        metric = result.spec.metrics[0]
    return {
        "name": result.spec.name,
        "evaluations": result.evaluations,
        "feasible": result.feasible,
        "elapsed_seconds": result.elapsed_seconds,
        "networks": result.network_names(),
        "devices": result.device_names(),
        "summary": jsonable_rows(result.summary_rows()),
        "comparison": {
            "metric": metric,
            "rows": jsonable_rows(result.comparison_rows(metric)),
        },
    }


def campaign_to_csv(result, columns: Optional[Sequence[str]] = None) -> str:
    """Every feasible design point of a campaign as CSV text.

    Columns default to the union of keys across all rows in first-seen
    order: different networks report different per-group latency columns
    (``latency_conv1_ms`` vs ResNet stage groups), and taking only the
    first row's keys would silently drop the rest.
    """
    rows = result.point_rows()
    if columns is None:
        seen: dict = {}
        for row in rows:
            for key in row:
                seen.setdefault(key)
        columns = list(seen)
    return rows_to_csv(rows, columns=columns)
