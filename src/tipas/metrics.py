"""Evaluation metrics and the report structure they roll up into."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInputError


def accuracy(preds: Sequence[int], truths: Sequence[int]) -> float:
    """Fraction of exact matches."""
    preds = np.asarray(preds)
    truths = np.asarray(truths)
    if preds.size == 0 or preds.shape != truths.shape:
        raise InvalidInputError(
            f"need equal non-empty vectors, got {preds.shape} vs {truths.shape}"
        )
    return float((preds == truths).mean())


def per_action_recall(
    preds: Sequence[int], truths: Sequence[int], n_actions: int
) -> np.ndarray:
    """Recall per action; NaN for actions with no true instance."""
    preds = np.asarray(preds)
    truths = np.asarray(truths)
    if preds.size == 0 or preds.shape != truths.shape:
        raise InvalidInputError(
            f"need equal non-empty vectors, got {preds.shape} vs {truths.shape}"
        )
    out = np.full(n_actions, math.nan)
    for a in range(n_actions):
        mask = truths == a
        if mask.any():
            out[a] = float((preds[mask] == a).mean())
    return out


def macro_recall(preds: Sequence[int], truths: Sequence[int], n_actions: int) -> float:
    """Unweighted mean of per-action recalls over actions that occur."""
    recalls = per_action_recall(preds, truths, n_actions)
    present = ~np.isnan(recalls)
    if not present.any():
        raise InvalidInputError("no action has a true instance")
    return float(recalls[present].mean())


def mae_filtered(
    pred_times: Sequence[float],
    true_times: Sequence[float],
    last_times: Sequence[float],
    horizon: float = 12.0,
) -> float:
    """Mean absolute error over events whose true interarrival is within
    ``horizon`` hours; NaN when nothing passes the filter."""
    pred = np.asarray(pred_times, dtype=float)
    true = np.asarray(true_times, dtype=float)
    last = np.asarray(last_times, dtype=float)
    if not (pred.shape == true.shape == last.shape):
        raise InvalidInputError("pred/true/last vectors must align")
    keep = (true - last) <= horizon
    if not keep.any():
        return math.nan
    return float(np.abs(pred[keep] - true[keep]).mean())


@dataclass
class WindowResult:
    """Metrics of one (train window, test window) pair."""

    train_start: float
    train_end: float
    test_end: float
    n_predictions: int = 0
    accuracy: float = math.nan
    macro_recall: float = math.nan
    per_action_recall: list[float] = field(default_factory=list)
    n_time_predictions: int = 0
    n_filtered: int = 0  # time predictions inside the horizon filter (in MAE)
    mae_hours: float = math.nan
    n_censored: int = 0
    n_coldstart: int = 0


@dataclass
class EvalReport:
    """Per-window results plus pooled metrics and across-window spreads."""

    horizon_filter: float
    n_actions: int
    windows: list[WindowResult] = field(default_factory=list)
    accuracy: float = math.nan
    macro_recall: float = math.nan
    per_action_recall: list[float] = field(default_factory=list)
    mae_hours: float = math.nan
    n_predictions: int = 0
    n_filtered: int = 0
    n_censored: int = 0
    n_coldstart: int = 0
    accuracy_se: float | None = None
    macro_recall_se: float | None = None
    mae_se: float | None = None


def _std_error(values: list[float]) -> float | None:
    vals = np.asarray([v for v in values if not math.isnan(v)], dtype=float)
    if vals.size < 2:
        return None
    return float(vals.std(ddof=1) / math.sqrt(vals.size))


def fill_scores(
    result: WindowResult | EvalReport,
    preds: Sequence[int],
    truths: Sequence[int],
    time_abs_errors: Sequence[float],
    n_actions: int,
) -> None:
    """Set the action scores, the prediction count, the MAE and the count of
    time errors in it on ``result`` from its per-event outcomes."""
    if len(preds):
        result.n_predictions = len(preds)
        result.accuracy = accuracy(preds, truths)
        result.macro_recall = macro_recall(preds, truths, n_actions)
        result.per_action_recall = [
            float(r) for r in per_action_recall(preds, truths, n_actions)
        ]
    if len(time_abs_errors):
        result.mae_hours = float(np.mean(time_abs_errors))
    result.n_filtered = len(time_abs_errors)


def finalize_report(
    report: EvalReport,
    preds: Sequence[int],
    truths: Sequence[int],
    time_abs_errors: Sequence[float],
) -> EvalReport:
    """Fill pooled metrics from the concatenated per-event outcomes."""
    fill_scores(report, preds, truths, time_abs_errors, report.n_actions)
    report.accuracy_se = _std_error([w.accuracy for w in report.windows])
    report.macro_recall_se = _std_error([w.macro_recall for w in report.windows])
    report.mae_se = _std_error([w.mae_hours for w in report.windows])
    return report


def _nan_to_none(x):
    if isinstance(x, float) and math.isnan(x):
        return None
    if isinstance(x, list):
        return [_nan_to_none(v) for v in x]
    if isinstance(x, dict):
        return {k: _nan_to_none(v) for k, v in x.items()}
    return x


def report_to_dict(report: EvalReport) -> dict:
    """JSON-ready representation; NaN becomes None so the output is strict JSON."""
    return _nan_to_none(dataclasses.asdict(report))


def report_csv_rows(name: str, report: EvalReport) -> list[dict]:
    """Flat plotting-friendly rows, one per window plus one pooled row."""
    rows = []
    for i, w in enumerate(report.windows):
        rows.append(
            {
                "model": name,
                "window": i,
                "accuracy": w.accuracy,
                "macro_recall": w.macro_recall,
                "mae_hours": w.mae_hours,
                "n_predictions": w.n_predictions,
                "n_filtered": w.n_filtered,
                "n_censored": w.n_censored,
                "n_coldstart": w.n_coldstart,
            }
        )
    rows.append(
        {
            "model": name,
            "window": "pooled",
            "accuracy": report.accuracy,
            "macro_recall": report.macro_recall,
            "mae_hours": report.mae_hours,
            "n_predictions": report.n_predictions,
            "n_filtered": report.n_filtered,
            "n_censored": report.n_censored,
            "n_coldstart": report.n_coldstart,
        }
    )
    return rows
