"""Query execution engines over stored results.

Two engines answer the same :class:`~repro.service.queryspec.QuerySpec`
with **identical rows, ordering and errors**:

* :class:`ColumnarEngine` — vectorized column scans over a memory-mapped
  :class:`~repro.service.columnar.ColumnarBlock`: boolean-mask filters,
  stable NumPy argsorts, chunked Pareto domination masks.  Rows are
  materialized only for the final returned page.
* :class:`ReferenceEngine` — the plain-Python reference over a decoded
  result payload.  It serves opaque columnar blocks (payloads the strict
  column encoder cannot represent) and is the oracle the equivalence
  tests hold :class:`ColumnarEngine` to.

Semantics are the legacy server's, preserved exactly: filters are
equality over ``workload_name``/``device_name`` plus ``where`` clauses;
sorting is *stable* in both directions (ties keep stored order, matching
``sorted(..., reverse=maximize)``); Pareto fronts are per-network over
the stored row order with the classic no-worse-in-all /
strictly-better-in-one domination; ``best`` breaks ties toward the
earliest row and raises on NaN with the same message as
:func:`repro.core.design_space.best_by`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.pareto import normalize_objectives
from ..dse.campaign import metric_direction
from .queryspec import DERIVED_METRICS, QuerySpec, resolve_metric

__all__ = ["ColumnarEngine", "ReferenceEngine", "query_rows", "pareto_rows", "best_row"]

_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _non_numeric(path: str) -> ValueError:
    return ValueError(f"column {path!r} holds non-numeric values")


def _not_stored(path: str) -> ValueError:
    return ValueError(f"column {path!r} is not stored in this result")


def _numeric_sort_key(value: Any) -> Tuple[bool, Any]:
    """Total-order sort key matching NumPy's (NaN sorts greatest)."""
    is_nan = isinstance(value, float) and math.isnan(value)
    return (is_nan, 0.0 if is_nan else value)


# --------------------------------------------------------------------- #
# Columnar engine
# --------------------------------------------------------------------- #
class ColumnarEngine:
    """Vectorized query execution over one memory-mapped columnar block."""

    def __init__(self, block) -> None:
        self.block = block
        self.rows = block.rows

    # -- column access ------------------------------------------------- #
    def _numeric(self, metric: str) -> "np.ndarray":
        """A metric's values as a numeric array (exact storage dtypes)."""
        path, _kind = resolve_metric(metric)
        if path.startswith("derived:"):
            numerator, denominator = DERIVED_METRICS[path.split(":", 1)[1]]
            with np.errstate(divide="ignore", invalid="ignore"):
                return self._numeric(numerator).astype(np.float64) / self._numeric(
                    denominator
                ).astype(np.float64)
        stored = self.block.columns().get(path)
        if stored is None:
            # A schema-evolution gap: the block predates this column.
            raise _not_stored(path)
        if stored in ("str", "json"):
            raise _non_numeric(path)
        if stored == "optint":
            values = self.block.column(path).astype(np.float64)
            values[self.block.null_mask(path).astype(bool)] = np.nan
            return values
        return self.block.column(path)

    def _float_values(self, metric: str) -> "np.ndarray":
        """A metric as float64 — the ``float(getattr(...))`` equivalent."""
        return self._numeric(metric).astype(np.float64)

    def name_at(self, index: int) -> str:
        """The design-point name stored at row ``index``."""
        return self.block.pool()[int(self.block.column("name")[index])]

    # -- filtering ----------------------------------------------------- #
    def match_indices(self, spec: QuerySpec, use_device: bool = True) -> "np.ndarray":
        """Row indices matching the spec's network/device/where filters."""
        mask = np.ones(self.rows, dtype=bool)
        if spec.network is not None:
            mask &= self.block.column("workload_name") == self.block.pool_id(spec.network)
        if use_device and spec.device is not None:
            mask &= self.block.column("device_name") == self.block.pool_id(spec.device)
        for metric, op, value in spec.where:
            path, kind = resolve_metric(metric)
            stored = None if path.startswith("derived:") else self.block.columns().get(path)
            if kind == "str":
                if self.block.columns().get(path) is None:
                    raise _not_stored(path)
                ids = self.block.column(path)
                clause = _OPS[op](ids, self.block.pool_id(value))
            else:
                values = self._numeric(metric)
                if isinstance(value, bool):
                    value = int(value)
                elif stored == "bool":
                    values = values.astype(np.int64)
                clause = _OPS[op](values, value)
            mask &= clause
        return np.nonzero(mask)[0]

    # -- ordering ------------------------------------------------------ #
    def sort_rows(self, indices: "np.ndarray", metric: str, maximize: bool) -> "np.ndarray":
        """``indices`` stably sorted by ``metric``, descending if maximize."""
        path, kind = resolve_metric(metric)
        stored = None if path.startswith("derived:") else self.block.columns().get(path)
        if not path.startswith("derived:") and stored is None:
            raise _not_stored(path)
        if kind == "str" or stored in ("str", "json"):
            if kind != "str":
                raise _non_numeric(path)
            texts = self.block.strings(path)
            return np.array(
                sorted(indices.tolist(), key=lambda i: texts[i], reverse=maximize),
                dtype=np.int64,
            )
        sub = self._numeric(metric)[indices]
        if maximize:
            # Stable descending: stable-ascending over the reversed array,
            # mapped back — ties keep the original (stored) order, exactly
            # like ``sorted(..., reverse=True)``.
            reversed_order = np.argsort(sub[::-1], kind="stable")
            order = (len(sub) - 1 - reversed_order)[::-1]
        else:
            order = np.argsort(sub, kind="stable")
        return indices[order]

    # -- grouping / pareto --------------------------------------------- #
    def network_groups(self) -> List[Tuple[str, "np.ndarray"]]:
        """(workload name, row indices) per network, first-appearance order."""
        ids = self.block.column("workload_name")
        if not len(ids):
            return []
        unique, first = np.unique(ids, return_index=True)
        pool = self.block.pool()
        groups = []
        for gid in unique[np.argsort(first, kind="stable")]:
            groups.append((pool[int(gid)], np.nonzero(ids == gid)[0]))
        return groups

    def front_indices(
        self, indices: "np.ndarray", objectives: Sequence[Tuple[str, bool]]
    ) -> "np.ndarray":
        """Non-dominated subset of ``indices``, stored order preserved."""
        if not len(indices):
            return indices
        values = np.stack(
            [
                self._float_values(metric)[indices] * (1.0 if maximize else -1.0)
                for metric, maximize in objectives
            ],
            axis=1,
        )
        count = values.shape[0]
        keep = np.ones(count, dtype=bool)
        chunk = 256
        for start in range(0, count, chunk):
            block = values[start : start + chunk]
            # j dominates i: no worse in every objective, better in one.
            no_worse = (values[None, :, :] >= block[:, None, :]).all(axis=-1)
            better = (values[None, :, :] > block[:, None, :]).any(axis=-1)
            keep[start : start + chunk] = ~(no_worse & better).any(axis=1)
        return indices[keep]

    # -- best ---------------------------------------------------------- #
    def best(self, indices: "np.ndarray", metric: str, maximize: bool) -> Tuple[int, float]:
        """(row index, value) of the extreme row by ``metric`` in ``indices``."""
        resolve_metric(metric)
        if not len(indices):
            raise ValueError("no design points to choose from")
        values = self._float_values(metric)[indices]
        nans = np.isnan(values)
        if nans.any():
            first_nan = indices[int(np.argmax(nans))]
            raise ValueError(
                f"metric {metric!r} is NaN for design point "
                f"{self.name_at(int(first_nan))!r}"
            )
        position = int(np.argmax(values) if maximize else np.argmin(values))
        return int(indices[position]), float(values[position])

    # -- materialization ----------------------------------------------- #
    def materialize(
        self, indices: "np.ndarray", select: Optional[Tuple[str, ...]]
    ) -> List[Dict[str, Any]]:
        """Rows as dicts — full point payloads, or the ``select`` projection."""
        if select is None:
            return self.block.row_dicts(indices)
        projected: Dict[str, List[Any]] = {}
        for metric in select:
            path, kind = resolve_metric(metric)
            if path.startswith("derived:"):
                values = self._numeric(metric)[indices]
                projected[metric] = [float(v) for v in values]
                continue
            stored = self.block.columns().get(path)
            if stored is None:
                raise _not_stored(path)
            if stored in ("str", "json"):
                pool = self.block.pool()
                column = self.block.column(path)
                projected[metric] = [pool[int(column[i])] for i in indices]
            elif stored == "bool":
                column = self.block.column(path)
                projected[metric] = [bool(column[i]) for i in indices]
            elif stored == "optint":
                column = self.block.column(path)
                mask = self.block.null_mask(path)
                projected[metric] = [
                    None if mask[i] else int(column[i]) for i in indices
                ]
            elif stored == "mixed":
                column = self.block.column(path)
                mask = self.block.int_mask(path)
                projected[metric] = [
                    int(column[i]) if mask[i] else float(column[i]) for i in indices
                ]
            else:
                column = self.block.column(path)
                projected[metric] = column[indices].tolist()
        return [
            {metric: projected[metric][row] for metric in select}
            for row in range(len(indices))
        ]


# --------------------------------------------------------------------- #
# Reference engine
# --------------------------------------------------------------------- #
class ReferenceEngine:
    """Plain-Python execution over a decoded result payload.

    Used for JSONL segments and opaque blocks; also the oracle the
    columnar engine is tested against, so its loops deliberately mirror
    the legacy ``select``/``sorted``/``pareto_front``/``best_by`` code.
    """

    def __init__(self, payload: Dict[str, Any]) -> None:
        self.points: List[Dict[str, Any]] = payload.get("points", [])
        self.rows = len(self.points)

    # -- value access -------------------------------------------------- #
    def value(self, index: int, metric: str) -> Any:
        """A metric's raw value for row ``index`` (dotted-path lookup)."""
        path, _kind = resolve_metric(metric)
        point = self.points[index]
        if path.startswith("derived:"):
            numerator, denominator = DERIVED_METRICS[path.split(":", 1)[1]]
            return self.value(index, numerator) / self.value(index, denominator)
        value: Any = point
        for part in path.split("."):
            try:
                value = value[part]
            except KeyError:
                # Payloads written before this column existed lack the key.
                raise _not_stored(path) from None
        return value

    def _numeric_value(self, index: int, metric: str) -> Any:
        value = self.value(index, metric)
        if isinstance(value, str) or isinstance(value, dict):
            path, _ = resolve_metric(metric)
            raise _non_numeric(path)
        if value is None:
            # Nullable numeric columns (``bit_width``): compare as NaN,
            # like the columnar engine's null mask.
            return float("nan")
        return value

    def name_at(self, index: int) -> str:
        """The design-point name stored at row ``index``."""
        return self.points[index]["name"]

    # -- filtering ----------------------------------------------------- #
    def match_indices(self, spec: QuerySpec, use_device: bool = True) -> List[int]:
        """Row indices matching the spec's network/device/where filters."""
        indices = []
        for index, point in enumerate(self.points):
            if spec.network is not None and point["workload_name"] != spec.network:
                continue
            if use_device and spec.device is not None and point["device_name"] != spec.device:
                continue
            keep = True
            for metric, op, value in spec.where:
                _path, kind = resolve_metric(metric)
                if kind == "str":
                    row_value = self.value(index, metric)
                else:
                    row_value = self._numeric_value(index, metric)
                if not _OPS[op](row_value, value):
                    keep = False
                    break
            if keep:
                indices.append(index)
        return indices

    # -- ordering ------------------------------------------------------ #
    def sort_rows(self, indices: List[int], metric: str, maximize: bool) -> List[int]:
        """``indices`` stably sorted by ``metric``, descending if maximize."""
        _path, kind = resolve_metric(metric)
        if kind == "str":
            key = lambda i: self.value(i, metric)  # noqa: E731
        else:
            key = lambda i: _numeric_sort_key(self._numeric_value(i, metric))  # noqa: E731
        return sorted(indices, key=key, reverse=maximize)

    # -- grouping / pareto --------------------------------------------- #
    def network_groups(self) -> List[Tuple[str, List[int]]]:
        """(workload name, row indices) per network, first-appearance order."""
        groups: Dict[str, List[int]] = {}
        for index, point in enumerate(self.points):
            groups.setdefault(point["workload_name"], []).append(index)
        return list(groups.items())

    def front_indices(
        self, indices: List[int], objectives: Sequence[Tuple[str, bool]]
    ) -> List[int]:
        """Non-dominated subset of ``indices``, stored order preserved."""
        values = [
            [float(self._numeric_value(i, metric)) for metric, _max in objectives]
            for i in indices
        ]

        def dominates(a: List[float], b: List[float]) -> bool:
            """True when ``a`` is no worse everywhere and better somewhere."""
            better = False
            for (_, maximize), va, vb in zip(objectives, a, b):
                if (va < vb) if maximize else (va > vb):
                    return False
                if (va > vb) if maximize else (va < vb):
                    better = True
            return better

        kept = []
        for row, candidate in enumerate(values):
            if any(
                dominates(other, candidate)
                for other_row, other in enumerate(values)
                if other_row != row
            ):
                continue
            kept.append(indices[row])
        return kept

    # -- best ---------------------------------------------------------- #
    def best(self, indices: List[int], metric: str, maximize: bool) -> Tuple[int, float]:
        """(row index, value) of the extreme row by ``metric`` in ``indices``."""
        resolve_metric(metric)
        best_index: Optional[int] = None
        best_value = 0.0
        for index in indices:
            value = float(self._numeric_value(index, metric))
            if math.isnan(value):
                raise ValueError(
                    f"metric {metric!r} is NaN for design point {self.name_at(index)!r}"
                )
            if best_index is None or (
                value > best_value if maximize else value < best_value
            ):
                best_index = index
                best_value = value
        if best_index is None:
            raise ValueError("no design points to choose from")
        return best_index, best_value

    # -- materialization ----------------------------------------------- #
    def materialize(
        self, indices: Sequence[int], select: Optional[Tuple[str, ...]]
    ) -> List[Dict[str, Any]]:
        """Rows as dicts — full point payloads, or the ``select`` projection."""
        if select is None:
            return [self.points[i] for i in indices]
        return [
            {metric: self.value(i, metric) for metric in select} for i in indices
        ]


# --------------------------------------------------------------------- #
# Executors (engine-agnostic)
# --------------------------------------------------------------------- #
def _page(total_rows: int, start: int, limit: Optional[int]) -> Tuple[int, Optional[int]]:
    """(end, next_start) of a page over ``total_rows`` ordered rows."""
    end = total_rows if limit is None else min(start + limit, total_rows)
    return end, (end if end < total_rows else None)


def query_rows(
    engine, spec: QuerySpec, start: int = 0, limit: Optional[int] = None
) -> Tuple[List[Dict[str, Any]], int, Optional[int]]:
    """Filtered/sorted/top-k rows of one result, one page at a time.

    Returns ``(rows, total, next_start)``; only the page's rows are
    materialized.
    """
    indices = engine.match_indices(spec)
    if spec.metric is not None:
        maximize = (
            spec.maximize
            if spec.maximize is not None
            else metric_direction(spec.metric)
        )
        indices = engine.sort_rows(indices, spec.metric, maximize)
    if spec.top_k is not None:
        indices = indices[: spec.top_k]
    total = len(indices)
    end, next_start = _page(total, start, limit)
    return engine.materialize(indices[start:end], spec.select), total, next_start


def pareto_rows(
    engine,
    spec: QuerySpec,
    default_objectives: Sequence,
    start: int = 0,
    limit: Optional[int] = None,
) -> Tuple[List[List[Any]], Dict[str, List[Dict[str, Any]]], int, Optional[int]]:
    """Per-network Pareto fronts, paginated over the flattened front rows.

    Fronts are computed per network over the stored row order (``device``
    selects the result, never filters front rows — legacy semantics) and
    flattened in network first-appearance order for pagination; the page
    is regrouped into ``{network: rows}``.  Returns
    ``(objectives_echo, fronts, total, next_start)``.
    """
    if spec.where:
        raise ValueError("where filters are not supported for pareto queries")
    objectives = normalize_objectives(
        spec.objectives if spec.objectives is not None else default_objectives
    )
    for metric, _maximize in objectives:
        resolve_metric(metric)
    flat: List[Tuple[str, int]] = []
    for network, group in engine.network_groups():
        if spec.network is not None and network != spec.network:
            continue
        for index in engine.front_indices(group, objectives):
            flat.append((network, int(index)))
    total = len(flat)
    end, next_start = _page(total, start, limit)
    page = flat[start:end]
    rows = engine.materialize([index for _network, index in page], spec.select)
    fronts: Dict[str, List[Dict[str, Any]]] = {}
    for (network, _index), row in zip(page, rows):
        fronts.setdefault(network, []).append(row)
    return [list(pair) for pair in objectives], fronts, total, next_start


def best_row(engine, spec: QuerySpec) -> Tuple[Dict[str, Any], float]:
    """The single best row by ``spec.metric`` (legacy ``best_by`` semantics)."""
    if spec.metric is None:
        raise ValueError("best requires a metric")
    maximize = (
        spec.maximize if spec.maximize is not None else metric_direction(spec.metric)
    )
    indices = engine.match_indices(spec)
    index, value = engine.best(indices, spec.metric, maximize)
    row = engine.materialize([index], spec.select)[0]
    return row, value
