"""Flattened event/pair arrays shared by the likelihood and EM engines.

Event pairs (m < n within one user) drive both the short-term kernel sums
and the latent-attribution bookkeeping, so they are materialized once per
dataset: ``sp_*`` arrays hold every ordered pair, ``lp_*`` the same-action
subset used by the long-term kernel.  All gaps are pre-clamped for ties.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .model import DAY_HOURS, ModelStructure, UserHistory, clamp_gaps, tod_categories


@dataclass(frozen=True)
class EventPanel:
    """Per-event arrays and the event pairs.  The panel owns each pair's
    parameter cell, a flat row-major index into the (A, A) exponential
    parameters (``params.theta.ravel()[panel.sp_cell]``) or the (C, A)
    Weibull ones.  No EM code reads ``sp_src`` or ``lp_src``; they stay
    because the benchmark tracer counts the pairs by their size."""

    structure: ModelStructure
    T: float
    users: tuple[str, ...]

    # per event, length N
    ev_user: np.ndarray  # int user index
    ev_t: np.ndarray
    ev_a: np.ndarray
    ev_tod: np.ndarray
    ev_cat: np.ndarray
    ev_tail: np.ndarray  # T - t
    ev_pos: np.ndarray  # index of the event inside its own history

    # every (earlier m, later n) pair within a user, length P
    sp_src: np.ndarray
    sp_dst: np.ndarray
    sp_dt: np.ndarray
    sp_cell: np.ndarray  # a_src * A + a_dst

    # same-action subset, length L
    lp_src: np.ndarray
    lp_dst: np.ndarray
    lp_dt: np.ndarray
    lp_cell: np.ndarray  # c_src * A + a, c_src the earlier event's category

    @property
    def n_events(self) -> int:
        return int(self.ev_t.size)

    @property
    def n_users(self) -> int:
        return len(self.users)

    def event_label(self, n: int) -> tuple[str, int]:
        """(user key, index within that user's history) for diagnostics."""
        return self.users[int(self.ev_user[n])], int(self.ev_pos[n])


def check_histories(
    histories: Sequence[UserHistory], structure: ModelStructure, T: float
) -> None:
    """Reject a non-positive horizon, a user listed twice, an event after
    ``T`` and an action the structure does not have."""
    if T <= 0:
        raise InvalidInputError(f"observation horizon must be positive, got {T}")
    seen: set[str] = set()
    for hist in histories:
        if hist.user in seen:
            raise InvalidInputError(f"duplicate history for user {hist.user!r}")
        seen.add(hist.user)
        t, a = hist.times(), hist.actions()
        if t.size and t[-1] > T:
            raise InvalidInputError(
                f"user {hist.user!r} has an event at t={t[-1]} beyond T={T}"
            )
        if a.size and a.max() >= structure.n_actions:
            raise InvalidInputError(
                f"user {hist.user!r} uses action {a.max()} but the model has "
                f"{structure.n_actions} actions"
            )


def build_panel(
    histories: Sequence[UserHistory],
    structure: ModelStructure,
    T: float,
) -> EventPanel:
    check_histories(histories, structure, T)
    users = tuple(h.user for h in histories)

    def joined(parts, dtype=np.int64):
        return np.concatenate([np.empty(0, dtype=dtype), *parts])

    lengths = np.array([len(h) for h in histories], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    ev_t_arr = joined((h.times() for h in histories), np.float64)
    ev_a_arr = joined(h.actions() for h in histories)
    ev_user_arr = np.repeat(np.arange(len(histories), dtype=np.int64), lengths)
    ev_pos_arr = np.arange(ev_t_arr.size, dtype=np.int64) - starts[ev_user_arr]
    pairs = [np.triu_indices(n, k=1) for n in lengths.tolist()]
    sp_src_arr = joined(src + s for (src, _), s in zip(pairs, starts.tolist()))
    sp_dst_arr = joined(dst + s for (_, dst), s in zip(pairs, starts.tolist()))

    ev_tod = ev_t_arr % DAY_HOURS
    ev_cat = tod_categories(structure, ev_tod)

    sp_dt = clamp_gaps(ev_t_arr[sp_dst_arr] - ev_t_arr[sp_src_arr])
    a_src, a_dst = ev_a_arr[sp_src_arr], ev_a_arr[sp_dst_arr]
    same = a_src == a_dst
    sp_cell = a_src * structure.n_actions + a_dst
    lp_src = sp_src_arr[same]
    lp_dst = sp_dst_arr[same]

    arrays = dict(
        ev_user=ev_user_arr,
        ev_t=ev_t_arr,
        ev_a=ev_a_arr,
        ev_tod=ev_tod,
        ev_cat=ev_cat,
        ev_tail=T - ev_t_arr,
        ev_pos=ev_pos_arr,
        sp_src=sp_src_arr,
        sp_dst=sp_dst_arr,
        sp_dt=sp_dt,
        sp_cell=sp_cell,
        lp_src=lp_src,
        lp_dst=lp_dst,
        lp_dt=sp_dt[same],
        lp_cell=ev_cat[lp_src] * structure.n_actions + ev_a_arr[lp_dst],
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    return EventPanel(structure=structure, T=float(T), users=users, **arrays)
