"""Flattened event arrays shared by the likelihood and EM engines.

The exponential kernel is summed without enumerating every event pair.  Each
user's history is cut into chunks of about ``CHUNK_EVENTS`` events; a chunk
boundary never splits a run of events less than ``TIE_EPSILON`` apart, so
every gap across chunks is at least ``TIE_EPSILON`` and ``clamp_gaps`` only
acts on the pairs inside a chunk.  Those pairs are stored (``cp_*``, about
``CHUNK_EVENTS / 2`` per event); the earlier chunks reach an event through two
decayed (A, A) states carried from chunk start to chunk start (Ozaki's
recursion), see :func:`decay_sums`.  The Weibull kernel has no such recursion
for a general shape, so its same-action pairs are stored (``lp_*``).  Memory
is O(N * CHUNK_EVENTS + same-action pairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .model import (
    DAY_HOURS, TIE_EPSILON, ModelStructure, UserHistory, check_positive, clamp_gaps,
    tod_categories,
)

# Target number of events per chunk; a run of ties can make a chunk longer.
CHUNK_EVENTS = 32
# Same-action pairs are evaluated this many at a time, which bounds the
# temporaries of the Weibull kernel.
PAIR_BLOCK = 1 << 14


@dataclass(frozen=True)
class EventPanel:
    """Per-event arrays, the chunks of the exponential kernel and the
    same-action pairs of the Weibull kernel.

    Cells are flat row-major indices into parameter arrays: ``cp_cell`` into
    the (A, A) exponential ones (``params.omega.ravel()[panel.cp_cell]``),
    ``lp_cell`` into the (C, A) Weibull ones.  The earlier event of each
    pair, ``sp_src`` for every pair and ``lp_src`` for the same-action ones,
    is built on demand: no EM code reads it, and the benchmark tracer counts
    the pairs by its size."""

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
    ev_chunk: np.ndarray  # index of the event's chunk

    # per chunk: start time, and the chunks followed by one of the same
    # user, ordered by their rank inside the user; ch_step[ch_rank[k]:
    # ch_rank[k + 1]] are the chunks of rank k
    ch_t: np.ndarray
    ch_step: np.ndarray
    ch_rank: np.ndarray

    # every (earlier, later) pair inside one chunk, length about N * 16
    cp_dt: np.ndarray  # clamped gap
    cp_cell: np.ndarray  # a_src * A + a_dst
    cp_slot: np.ndarray  # dst * A + a_src, a flat index into an (N, A) field

    # every (earlier, later) same-action pair within a user, length L
    lp_dst: np.ndarray
    lp_dt: np.ndarray
    lp_cell: np.ndarray  # c_src * A + a, c_src the earlier event's category

    @property
    def n_events(self) -> int:
        return int(self.ev_t.size)

    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def sp_src(self) -> np.ndarray:
        """Earlier event of every ordered event pair within a user, in
        ``np.triu_indices`` order; built on each call, O(pairs) memory."""
        starts = np.flatnonzero(self.ev_pos == 0)
        ends = np.append(starts[1:], self.n_events)
        return np.concatenate(
            [np.empty(0, np.int64)]
            + [np.triu_indices(e - s, k=1)[0] + s for s, e in zip(starts, ends)]
        )

    @property
    def lp_src(self) -> np.ndarray:
        """Earlier event of every same-action pair, aligned with ``lp_dst``;
        built on each call."""
        return _same_action_pairs(self.ev_user, self.ev_a, self.structure.n_actions)[0]

    def source_cell_sums(self, field: np.ndarray) -> np.ndarray:
        """Sums of an (N, A) field, indexed (event n, source action a'), over
        the exponential cells a' * A + a_n; shape (A * A,)."""
        A = self.structure.n_actions
        cell = (np.arange(A) * A + self.ev_a[:, None]).reshape(-1)
        return np.bincount(cell, weights=field.reshape(-1), minlength=A * A)

    def event_label(self, n: int) -> tuple[str, int]:
        """(user key, index within that user's history) for diagnostics."""
        return self.users[int(self.ev_user[n])], int(self.ev_pos[n])


def check_histories(
    histories: Sequence[UserHistory], structure: ModelStructure, T: float
) -> None:
    """Reject a horizon that is not positive and finite, a user listed
    twice, an event after ``T`` and an action the structure does not have."""
    check_positive("observation horizon", T)
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


def _run_starts(is_start: np.ndarray) -> np.ndarray:
    """For items in runs marked by ``is_start``, the index of each item's
    run start."""
    return np.maximum.accumulate(np.where(is_start, np.arange(is_start.size), 0))


def _pairs_within(first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(earlier, later) index pairs inside each run of consecutive items,
    where ``first[i]`` is the index of item i's run start; ordered by the
    later item, then the earlier."""
    counts = np.arange(first.size) - first
    dst = np.repeat(np.arange(first.size), counts)
    src = np.arange(dst.size)
    src -= (np.cumsum(counts) - counts)[dst]
    src += first[dst]
    return src, dst


def _same_action_pairs(
    ev_user: np.ndarray, ev_a: np.ndarray, n_actions: int
) -> tuple[np.ndarray, np.ndarray]:
    """(earlier, later) event indices of every same-action pair within a
    user, built per (user, action) group, in group order."""
    order = np.argsort(ev_user * n_actions + ev_a, kind="stable")
    key = ev_user[order] * n_actions + ev_a[order]
    src, dst = _pairs_within(_run_starts(np.diff(key, prepend=-1) != 0))
    src = order[src]
    return src, order[dst]


def pair_blocks(n_pairs: int):
    """Slices that cover ``n_pairs`` pairs, ``PAIR_BLOCK`` at a time."""
    return (slice(b, b + PAIR_BLOCK) for b in range(0, n_pairs, PAIR_BLOCK))


def build_panel(
    histories: Sequence[UserHistory],
    structure: ModelStructure,
    T: float,
) -> EventPanel:
    check_histories(histories, structure, T)
    users = tuple(h.user for h in histories)
    A = structure.n_actions

    def joined(parts, dtype=np.int64):
        return np.concatenate([np.empty(0, dtype=dtype), *parts])

    lengths = np.array([len(h) for h in histories], dtype=np.int64)
    starts = np.cumsum(lengths) - lengths
    ev_t = joined((h.times() for h in histories), np.float64)
    ev_a = joined(h.actions() for h in histories)
    ev_user = np.repeat(np.arange(len(histories), dtype=np.int64), lengths)
    n = ev_t.size
    ev_pos = np.arange(n, dtype=np.int64) - starts[ev_user]
    ev_tod = ev_t % DAY_HOURS
    ev_cat = tod_categories(structure, ev_tod)

    # chunks: the first allowed boundary at or after every CHUNK_EVENTS-th
    # event of a user; a boundary is allowed at a user's first event and
    # after a gap of at least TIE_EPSILON
    new_user = ev_pos == 0
    allowed = np.flatnonzero(new_user | (np.diff(ev_t, prepend=0.0) >= TIE_EPSILON))
    targets = np.flatnonzero(ev_pos % CHUNK_EVENTS == 0)
    bounds = np.append(allowed, n)[np.searchsorted(allowed, targets)]
    is_chunk_start = np.zeros(n, dtype=bool)
    is_chunk_start[bounds[bounds < n]] = True
    ev_chunk = np.cumsum(is_chunk_start) - 1
    first = np.flatnonzero(is_chunk_start)
    ch_user = ev_user[first]
    has_next = np.zeros(first.size, dtype=bool)
    has_next[:-1] = ch_user[1:] == ch_user[:-1]
    rank = np.arange(first.size) - _run_starts(new_user[first])
    ch_step = np.flatnonzero(has_next)
    ch_step = ch_step[np.argsort(rank[ch_step], kind="stable")]
    ch_rank = np.concatenate(([0], np.cumsum(np.bincount(rank[has_next]))))

    src, dst = _pairs_within(first[ev_chunk])
    cp_dt = clamp_gaps(ev_t[dst] - ev_t[src])
    cp_cell = ev_a[src] * A + ev_a[dst]
    cp_slot = dst * A + ev_a[src]
    del src, dst

    src, lp_dst = _same_action_pairs(ev_user, ev_a, A)
    lp_dt = ev_t[lp_dst]
    lp_dt -= ev_t[src]
    lp_cell = ev_cat[src] * A
    del src
    lp_cell += ev_a[lp_dst]

    arrays = dict(
        ev_user=ev_user,
        ev_t=ev_t,
        ev_a=ev_a,
        ev_tod=ev_tod,
        ev_cat=ev_cat,
        ev_tail=T - ev_t,
        ev_pos=ev_pos,
        ev_chunk=ev_chunk,
        ch_t=ev_t[first],
        ch_step=ch_step,
        ch_rank=ch_rank,
        cp_dt=cp_dt,
        cp_cell=cp_cell,
        cp_slot=cp_slot,
        lp_dst=lp_dst,
        lp_dt=np.maximum(lp_dt, TIE_EPSILON, out=lp_dt),
        lp_cell=lp_cell,
    )
    for arr in arrays.values():
        arr.flags.writeable = False
    return EventPanel(structure=structure, T=float(T), users=users, **arrays)


def decay_sums(panel: EventPanel, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decayed sums over the earlier events of each event's user.

    Returns ``K`` and ``G``, both (N, A): ``K[n, a']`` sums
    ``exp(-omega[a', a_n] dt)`` and ``G[n, a']`` sums
    ``dt * exp(-omega[a', a_n] dt)`` over the events of action a' before n,
    with ``dt`` the clamped gap.  The pairs inside n's chunk are summed
    directly.  The earlier chunks enter through two (A, A) states per chunk
    start t_c, ``S[a', a]``, the sum of ``exp(-omega[a', a] (t_c - t))``, and
    ``S1[a', a]``, the sum of ``(t_c - t) exp(-omega[a', a] (t_c - t))``
    over the events t of action a' in earlier chunks.  Every exponent is at
    most 0, so nothing overflows.
    """
    A = panel.structure.n_actions
    n = panel.n_events
    # each chunk's own events, decayed to the start of the user's next chunk
    n_ch = panel.ch_t.size
    has_next = np.zeros(n_ch, dtype=bool)
    has_next[panel.ch_step] = True
    src = np.flatnonzero(has_next[panel.ev_chunk])
    nxt = panel.ev_chunk[src] + 1
    lead = panel.ch_t[nxt] - panel.ev_t[src]
    e = np.exp(-omega[panel.ev_a[src]] * lead[:, None])
    cell = ((nxt * A + panel.ev_a[src])[:, None] * A + np.arange(A)).reshape(-1)
    size = n_ch * A * A
    S = np.bincount(cell, weights=e.reshape(-1), minlength=size).reshape(n_ch, A, A)
    S1 = np.bincount(
        cell, weights=(e * lead[:, None]).reshape(-1), minlength=size
    ).reshape(n_ch, A, A)
    # carry the states forward, one chunk rank at a time across all users
    for lo, hi in zip(panel.ch_rank[:-1], panel.ch_rank[1:]):
        c = panel.ch_step[lo:hi]
        gap = (panel.ch_t[c + 1] - panel.ch_t[c])[:, None, None]
        decay = np.exp(-omega * gap)
        S1[c + 1] += decay * (S1[c] + gap * S[c])
        S[c + 1] += decay * S[c]

    delta = panel.ev_t - panel.ch_t[panel.ev_chunk]
    w = np.exp(-omega[:, panel.ev_a].T * delta[:, None])
    at = (panel.ev_chunk[:, None], np.arange(A), panel.ev_a[:, None])
    K = w * S[at]
    G = w * (delta[:, None] * S[at] + S1[at])
    # the pairs inside each chunk (an empty bincount is integer, so add it)
    e = np.exp(-omega.ravel()[panel.cp_cell] * panel.cp_dt)
    K += np.bincount(panel.cp_slot, weights=e, minlength=n * A).reshape(n, A)
    G += np.bincount(panel.cp_slot, weights=e * panel.cp_dt, minlength=n * A).reshape(n, A)
    return K, G
