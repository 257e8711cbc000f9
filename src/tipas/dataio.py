"""Dataset ingestion, model persistence, parameter export.

Datasets are JSON Lines (``{"user": ..., "action": ..., "t": ...}``) or CSV
with a ``user,action,t`` header; ``t`` is either hours since the dataset
origin or an ISO-8601 timestamp converted against an anchor.  Models are
single JSON documents; floats round-trip exactly because they are written
with ``repr`` (shortest form that parses back to the same bits).
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    DataFormatError,
    InvalidInputError,
    UnsupportedVersionError,
    VocabularyError,
)
from .model import (
    DAY_HOURS,
    ModelParams,
    ModelStructure,
    UserHistory,
    exp_kernel,
    gaussian_density,
    weibull_kernel,
)
from .simulate import SyntheticSpec

logger = logging.getLogger(__name__)

SCHEMA_VERSION = 1
MODEL_KIND = "tipas-model"
SPEC_KIND = "tipas-synthetic-spec"
# Step in hours of the time-of-day grid of the exported background curves
TOD_STEP = 0.1


@dataclass(frozen=True)
class LoadResult:
    histories: tuple[UserHistory, ...]
    vocabulary: tuple[str, ...]
    n_records: int
    n_reordered_users: int


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def canonical_json(obj) -> str:
    """Key-sorted JSON with a trailing newline; identical inputs give
    identical bytes."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_json(path: str | Path, obj) -> None:
    _atomic_write(path, canonical_json(obj))


def _parse_time(raw, line_no: int, t0: datetime | None) -> float:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        t = float(raw)
    else:
        text = str(raw)
        try:
            t = float(text)
        except ValueError:
            try:
                stamp = datetime.fromisoformat(text)
            except ValueError:
                raise DataFormatError(
                    f"line {line_no}: cannot parse time {raw!r}"
                ) from None
            if t0 is None:
                raise DataFormatError(
                    f"line {line_no}: timestamp {raw!r} needs a --t0 anchor"
                )
            t = (stamp - t0).total_seconds() / 3600.0
    if not math.isfinite(t):
        raise DataFormatError(f"line {line_no}: non-finite time {raw!r}")
    if t < 0:
        raise DataFormatError(f"line {line_no}: negative time {t}")
    return t


def _iter_records(path: Path, t0: datetime | None):
    """Yields (line_no, user, action, t); raises with line numbers."""
    if path.suffix.lower() == ".csv":
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or not {"user", "action", "t"} <= set(
                reader.fieldnames
            ):
                raise DataFormatError(
                    f"{path}: CSV needs a header with user,action,t"
                )
            for i, row in enumerate(reader, start=2):
                if row.get("user") is None or row.get("action") is None:
                    raise DataFormatError(f"line {i}: missing user/action field")
                yield i, str(row["user"]), str(row["action"]), _parse_time(
                    row.get("t"), i, t0
                )
    else:
        with open(path) as fh:
            for i, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataFormatError(f"line {i}: invalid JSON ({exc.msg})") from None
                if not isinstance(rec, dict) or not {"user", "action", "t"} <= set(rec):
                    raise DataFormatError(
                        f"line {i}: record needs user, action and t fields"
                    )
                yield i, str(rec["user"]), str(rec["action"]), _parse_time(
                    rec["t"], i, t0
                )


def load_dataset(
    path: str | Path,
    vocabulary: Sequence[str] | None = None,
    t0: str | datetime | None = None,
) -> LoadResult:
    """Read a dataset file into per-user sorted histories.

    With a ``vocabulary`` the action names must all be known (prediction
    against an existing model); otherwise the vocabulary is the sorted set
    of action names seen.  Out-of-order records are sorted (stable) and the
    affected users counted, never dropped.
    """
    path = Path(path)
    if isinstance(t0, str):
        t0 = datetime.fromisoformat(t0)
    per_user: dict[str, list[tuple[float, str, int]]] = {}
    n_records = 0
    for line_no, user, action, t in _iter_records(path, t0):
        n_records += 1
        per_user.setdefault(user, []).append((t, action, line_no))

    if vocabulary is None:
        vocab = tuple(sorted({a for recs in per_user.values() for _, a, _ in recs}))
    else:
        vocab = tuple(vocabulary)
    index = {a: i for i, a in enumerate(vocab)}

    histories = []
    n_reordered = 0
    for user, recs in per_user.items():
        times, names, lines = zip(*recs)
        t = np.asarray(times, dtype=np.float64)
        if np.any(t[1:] < t[:-1]):
            n_reordered += 1
        order = np.argsort(t, kind="stable")
        codes = np.array([index.get(a, -1) for a in names], dtype=np.int64)[order]
        if np.any(codes < 0):
            bad = int(order[np.argmax(codes < 0)])
            raise VocabularyError(
                f"line {lines[bad]}: action {names[bad]!r} not in model vocabulary"
            )
        histories.append(UserHistory.from_arrays(user, t[order], codes))
    if n_reordered:
        logger.warning("re-sorted events for %d user(s)", n_reordered)
    return LoadResult(
        histories=tuple(histories),
        vocabulary=vocab,
        n_records=n_records,
        n_reordered_users=n_reordered,
    )


def save_histories(
    histories: Sequence[UserHistory], vocabulary: Sequence[str], path: str | Path
) -> None:
    """Write histories as JSON Lines with action names from the vocabulary."""
    buf = io.StringIO()
    for h in histories:
        for t, a in zip(h.times().tolist(), h.actions().tolist()):
            buf.write(
                json.dumps(
                    {"user": h.user, "action": vocabulary[a], "t": t}, sort_keys=True
                )
            )
            buf.write("\n")
    _atomic_write(path, buf.getvalue())


# ---------------------------------------------------------------------------
# model persistence
# ---------------------------------------------------------------------------


def _params_to_dict(params: ModelParams) -> dict:
    s = params.structure
    return {
        "structure": {
            "n_actions": s.n_actions,
            "n_mixtures": s.n_mixtures,
            "tod_edges": list(s.tod_edges),
            "day_length": DAY_HOURS,
            "horizon": s.horizon,
        },
        "users": list(params.users),
        "params": {
            name: getattr(params, name).tolist()
            for name in (
                "alpha",
                "beta",
                "mu",
                "sigma",
                "theta",
                "omega",
                "phi",
                "gamma",
                "kappa",
            )
        },
    }


def _params_from_dict(doc: dict, where: str) -> ModelParams:
    try:
        s = doc["structure"]
        if float(s["day_length"]) != DAY_HOURS:
            raise ValueError(f"day_length must be 24 hours, got {s['day_length']!r}")
        structure = ModelStructure(
            n_actions=int(s["n_actions"]),
            n_mixtures=int(s["n_mixtures"]),
            tod_edges=tuple(s["tod_edges"]),
            horizon=float(s["horizon"]),
        )
        p = doc["params"]
        return ModelParams(
            structure=structure,
            users=tuple(doc["users"]),
            alpha=np.asarray(p["alpha"], dtype=np.float64).reshape(
                len(doc["users"]), structure.n_actions
            ),
            beta=np.asarray(p["beta"]),
            mu=np.asarray(p["mu"]),
            sigma=np.asarray(p["sigma"]),
            theta=np.asarray(p["theta"]),
            omega=np.asarray(p["omega"]),
            phi=np.asarray(p["phi"]),
            gamma=np.asarray(p["gamma"]),
            kappa=np.asarray(p["kappa"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataFormatError(f"{where}: malformed model document ({exc})") from exc


def save_model(
    params: ModelParams,
    vocabulary: Sequence[str],
    path: str | Path,
    metadata: dict | None = None,
) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": MODEL_KIND,
        "actions": list(vocabulary),
        "metadata": metadata or {},
        **_params_to_dict(params),
    }
    write_json(path, doc)


def _load_doc(path: str | Path, kind: str) -> dict:
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc.msg})") from None
    if not isinstance(doc, dict) or doc.get("kind") != kind:
        raise DataFormatError(f"{path}: not a {kind} document")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise UnsupportedVersionError(
            f"{path}: schema_version {version!r} unsupported (expected {SCHEMA_VERSION})"
        )
    return doc


def load_model(path: str | Path) -> tuple[ModelParams, tuple[str, ...], dict]:
    doc = _load_doc(path, MODEL_KIND)
    params = _params_from_dict(doc, str(path))
    vocab = tuple(doc.get("actions", []))
    if len(vocab) != params.structure.n_actions:
        raise DataFormatError(
            f"{path}: vocabulary size {len(vocab)} != n_actions "
            f"{params.structure.n_actions}"
        )
    return params, vocab, doc.get("metadata", {})


def save_spec(spec: SyntheticSpec, vocabulary: Sequence[str], path: str | Path) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": SPEC_KIND,
        "n_users": spec.n_users,
        "horizon": spec.horizon,
        "seed": spec.seed,
        "actions": list(vocabulary),
        "model": _params_to_dict(spec.params),
    }
    write_json(path, doc)


def load_spec(path: str | Path) -> tuple[SyntheticSpec, tuple[str, ...]]:
    doc = _load_doc(path, SPEC_KIND)
    params = _params_from_dict(doc["model"], str(path))
    spec = SyntheticSpec(
        n_users=int(doc["n_users"]),
        params=params,
        horizon=float(doc["horizon"]),
        seed=int(doc["seed"]),
    )
    return spec, tuple(doc.get("actions", []))


# ---------------------------------------------------------------------------
# parameter export for inspection/plotting
# ---------------------------------------------------------------------------


def _write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


def export_params(
    params: ModelParams,
    vocabulary: Sequence[str],
    out_dir: str | Path,
    delta_max: float = 36.0,
    delta_step: float = 0.05,
) -> list[Path]:
    """Write plot-ready CSV curves for every kernel and background density.

    Long-term curves are ``phi * gamma * kappa * d^(kappa-1) * exp(-gamma d^kappa)``
    per (time-of-day category, action); short-term curves are
    ``theta * omega * exp(-omega d)`` per action pair; background densities
    sample the Gaussian-mixture rate over one day per action, every
    ``TOD_STEP`` hours.  Each value is the model's own kernel function at
    that point.  The deltas need finite ``0 < delta_step <= delta_max``.
    """
    if not (math.isfinite(delta_max) and 0.0 < delta_step <= delta_max):
        raise InvalidInputError(
            f"need finite 0 < delta_step <= delta_max, got {delta_step} and {delta_max}"
        )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    s = params.structure
    names = list(vocabulary) if vocabulary else [str(a) for a in range(s.n_actions)]
    deltas = np.arange(delta_step, delta_max + 1e-9, delta_step)
    tods = np.arange(0.0, DAY_HOURS, TOD_STEP)

    long_rows = []
    for c in range(s.n_categories):
        lo, hi = s.tod_edges[c], s.tod_edges[c + 1]
        for a in range(s.n_actions):
            vals = weibull_kernel(
                deltas, params.phi[c, a], params.gamma[c, a], params.kappa[c, a]
            )
            for d, v in zip(deltas, vals):
                long_rows.append([c, lo, hi, names[a], repr(float(d)), repr(float(v))])
    long_path = out_dir / "long_term_kernels.csv"
    _write_csv(
        long_path,
        ["category", "window_start", "window_end", "action", "delta_hours", "value"],
        long_rows,
    )

    short_rows = []
    for a_src in range(s.n_actions):
        for a_dst in range(s.n_actions):
            vals = exp_kernel(
                deltas, params.theta[a_src, a_dst], params.omega[a_src, a_dst]
            )
            for d, v in zip(deltas, vals):
                short_rows.append(
                    [names[a_src], names[a_dst], repr(float(d)), repr(float(v))]
                )
    short_path = out_dir / "short_term_kernels.csv"
    _write_csv(
        short_path, ["src_action", "dst_action", "delta_hours", "value"], short_rows
    )

    bg_rows = []
    dens = (
        params.beta * gaussian_density(tods[:, None, None], params.mu, params.sigma)
    ).sum(axis=2)
    for i, tod in enumerate(tods):
        for a in range(s.n_actions):
            bg_rows.append([names[a], repr(float(tod)), repr(float(dens[i, a]))])
    bg_path = out_dir / "background_density.csv"
    _write_csv(bg_path, ["action", "tod_hours", "value"], bg_rows)

    return [long_path, short_path, bg_path]
