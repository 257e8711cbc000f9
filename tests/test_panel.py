"""The chunked exponential-kernel sums and the per-cell Weibull sums against
the all-pairs oracle, and the exactness of the live Weibull pairs."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import xlogy

from tipas import UserHistory
from tipas._panel import CHUNK_EVENTS, build_panel, decay_sums
from tipas.inference import (
    EXP_LIMIT, KAPPA_MAX, PARAM_FLOOR, _e_step_panel, exponential_objective, m_step_closed,
    weibull_objective,
)
from tipas.likelihood import tail_masses
from tipas.model import POWER_LOG_CAP, TIE_EPSILON, weibull_kernel

from conftest import random_params
from oracles import event_totals, pair_event_contributions, pair_panel, pair_weibull_objective

HORIZON = 400.0


def tied_times(rng, n):
    """Sorted times on [0, HORIZON) with exact ties, gaps below TIE_EPSILON,
    a tie run longer than a chunk that straddles the first chunk boundary,
    and a run of sub-TIE_EPSILON gaps whose ends lie further apart."""
    t = np.sort(rng.uniform(0.0, HORIZON - 1.0, n))
    t[CHUNK_EVENTS - 5 : 2 * CHUNK_EVENTS + 5] = t[CHUNK_EVENTS - 5]
    k = rng.choice(np.arange(2 * CHUNK_EVENTS + 6, n), n // 4, replace=False)
    t[k] = t[k - 1] + rng.choice([0.0, 0.3 * TIE_EPSILON, TIE_EPSILON], k.size)
    run = slice(n - 60, n - 20)
    t[run] = t[run.start] + 0.4 * TIE_EPSILON * np.arange(40)
    return np.sort(t)


def histories(rng, n_actions):
    """An empty user, a one-event user, two short users and two multi-chunk
    users with ties."""
    out = [UserHistory.from_arrays("empty", [], []), UserHistory.from_arrays("one", [3.0], [0])]
    for i, n in enumerate((2, 20, 5 * CHUNK_EVENTS, 9 * CHUNK_EVENTS)):
        t = np.sort(rng.uniform(0.0, HORIZON, n)) if n < 100 else tied_times(rng, n)
        out.append(UserHistory.from_arrays(f"u{i}", t, rng.integers(0, n_actions, n)))
    return out


def close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)


def pair_ids(pairs, oracle):
    """Ids of the (Weibull cell, later event, log gap) of each live pair and
    of each of the oracle's same-action pairs.  Pairs with one id have one
    Weibull term; pairs from tied earlier events share an id."""
    cell = np.repeat(np.arange(pairs.bounds.size - 1), np.diff(pairs.bounds))
    got = np.column_stack([cell, pairs.dst, pairs.log_dt])
    want = np.column_stack([oracle.lp_cell, oracle.lp_dst, np.log(oracle.lp_dt)])
    rows = np.vstack([got, want])
    order = np.lexsort(rows.T[::-1])
    new = np.diff(rows[order], axis=0).any(axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.concatenate(([0], np.cumsum(new)))[: len(rows)]
    return ids[: len(got)], ids[len(got):], int(ids.max(initial=-1)) + 1


def left_out(pairs, oracle):
    """The ids of :func:`pair_ids` and a mask of the ids of which the oracle
    holds more pairs than ``pairs``; fails unless every live pair is one of
    the oracle's, counted with multiplicity."""
    got, want, n_ids = pair_ids(pairs, oracle)
    n_got, n_want = np.bincount(got, minlength=n_ids), np.bincount(want, minlength=n_ids)
    assert np.all(n_got <= n_want)
    return got, want, n_want > n_got


@pytest.mark.parametrize("omega_range", [(1e-6, 1e-6), (1e3, 1e3), (1e-6, 1e3), (0.05, 5.0)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sums_match_all_pairs_oracle(seed, omega_range):
    rng = np.random.default_rng(seed)
    n_actions = 3
    hs = histories(rng, n_actions)
    p = random_params(rng, n_actions=n_actions, horizon=HORIZON,
                      users=tuple(h.user for h in hs))
    lo, hi = np.log(omega_range)
    p = replace(p, omega=np.exp(rng.uniform(lo, hi, p.omega.shape)))
    panel = build_panel(hs, p.structure, HORIZON)
    oracle = pair_panel(hs, p.structure, HORIZON)
    _, _, q_raw, r_raw, lam_pairs = pair_event_contributions(p, oracle)

    resp, lam = _e_step_panel(p, panel)
    close(lam, lam_pairs)
    np.testing.assert_allclose(event_totals(resp), 1.0, atol=1e-12)

    q = q_raw / lam_pairs[oracle.sp_dst]
    A2 = n_actions * n_actions
    sq = np.bincount(oracle.sp_cell, weights=q, minlength=A2)
    sq_dt = np.bincount(oracle.sp_cell, weights=q * oracle.sp_dt, minlength=A2)
    close(panel.source_cell_sums(resp.q), sq)
    close(panel.source_cell_sums(resp.q_dt), sq_dt)

    # q_num of the theta update, and the profiled bound built on sq, sq_dt
    q_den, _ = tail_masses(p, oracle.ev_tail, oracle.ev_a, oracle.ev_cat)
    theta = m_step_closed(resp, p, HORIZON)[2]
    want = np.where(q_den > 0, sq.reshape(q_den.shape) / np.where(q_den > 0, q_den, 1.0), 0.0)
    close(theta, np.maximum(want, PARAM_FLOOR))
    objective, x0, active = exponential_objective(resp, p)
    v = x0[:, 0]
    close(objective(x0), sq * v - np.exp(v) * sq_dt - xlogy(sq, q_den.reshape(-1)))
    assert np.array_equal(active, sq > 0)

    # the earlier events of the same-action pairs are the oracle's
    assert np.array_equal(np.sort(panel.lp_src), np.sort(oracle.lp_src))
    assert np.array_equal(panel.sp_src, oracle.sp_src)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weibull_cell_sums_match_all_pairs_oracle(seed):
    rng = np.random.default_rng(seed)
    n_actions = 3
    hs = histories(rng, n_actions)
    p = random_params(rng, n_actions=n_actions, horizon=HORIZON,
                      users=tuple(h.user for h in hs), kappa_range=(0.3, 3.0))
    # one cell at the weight floor, which keeps its shape
    phi = p.phi.copy()
    phi[1, 2] = PARAM_FLOOR
    p = replace(p, phi=phi)
    panel = build_panel(hs, p.structure, HORIZON)
    oracle = pair_panel(hs, p.structure, HORIZON)
    _, _, _, r_raw, lam_pairs = pair_event_contributions(p, oracle)
    resp, _ = _e_step_panel(p, panel)

    # each cell's slice holds pairs of that cell, with their log gaps
    A = n_actions
    n_cells = p.structure.n_categories * A
    pairs = resp.pairs
    assert pairs.bounds.size == n_cells + 1
    assert pairs.bounds[0] == 0 and pairs.bounds[-1] == pairs.dst.size
    left_out(pairs, oracle)

    r = r_raw / lam_pairs[oracle.lp_dst]
    sr = np.bincount(oracle.lp_cell, weights=r, minlength=n_cells)
    sr_log = np.bincount(oracle.lp_cell, weights=r * np.log(oracle.lp_dt), minlength=n_cells)
    close(resp.pairs.cell_sums(resp.r), sr)
    close(resp.pairs.cell_sums(resp.r * pairs.log_dt), sr_log)

    _, r_den = tail_masses(p, oracle.ev_tail, oracle.ev_a, oracle.ev_cat)
    phi = m_step_closed(resp, p, HORIZON)[3]
    want = np.where(r_den > 0, sr.reshape(r_den.shape) / np.where(r_den > 0, r_den, 1.0), 0.0)
    close(phi, np.maximum(want, PARAM_FLOOR))

    objective, x0, active = weibull_objective(resp, p)
    assert np.array_equal(active, (sr > 0) & (p.phi.reshape(-1) > PARAM_FLOOR))
    assert not active[1 * A + 2]
    # only the active cells' values are read
    expected = pair_weibull_objective(p, oracle, r)
    moved = x0 + rng.uniform(-0.3, 0.3, x0.shape)
    for x in (x0, moved):
        got = objective(x, derivatives=True)
        for g, w in zip(got, expected(x)):
            close(g[active], w[active])
        close(objective(x), got[0])


def extreme_weibull(rng, shape):
    """phi, gamma, kappa with kappa log-uniform on [1e-3, KAPPA_MAX] and one
    cell at each end, Weibull scales from e^-5 to e^10, one gamma near
    e^700 or e^-700, and about a fifth of the cells at phi = 0."""
    kappa = np.exp(rng.uniform(np.log(1e-3), np.log(KAPPA_MAX), shape))
    ends = rng.choice(kappa.size, 2, replace=False)
    kappa.flat[ends] = (1e-3, KAPPA_MAX)
    gamma = np.exp(np.clip(-kappa * rng.uniform(-5.0, 10.0, shape), -EXP_LIMIT, EXP_LIMIT))
    gamma.flat[rng.integers(gamma.size)] = np.exp(rng.choice([-1.0, 1.0]) * rng.uniform(690, 700))
    phi = rng.uniform(0.0, 0.5, shape) * (rng.random(shape) > 0.2)
    return phi, gamma, kappa


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_live_ranges_are_exact(seed):
    """Every same-action pair that ``live_pairs`` leaves out has a Weibull
    term of exactly 0.0, and every pair it gives is one of the oracle's, over
    80 extreme parameter sets per seed, on histories with ties, gaps below
    TIE_EPSILON and a dozen (user, action) groups.  A user whose gaps reach 1e9
    hours takes kappa log(dt) past the kernel's power cap.  A cell with
    phi gamma kappa = 0 has no pair."""
    rng = np.random.default_rng(seed)
    n_actions = 3
    far = np.array([0.0, 0.0, 0.3 * TIE_EPSILON, 1.0, 30.0, 1e9, 1e9 + 2.0])
    hs = histories(rng, n_actions) + [UserHistory.from_arrays("far", far, np.zeros(far.size, int))]
    structure = random_params(rng, n_actions=n_actions).structure
    panel = build_panel(hs, structure, 2e9)
    oracle = pair_panel(hs, structure, 2e9)
    log_dt = np.log(oracle.lp_dt)
    n_cells = structure.n_categories * n_actions
    n_all = np.bincount(oracle.lp_cell, minlength=n_cells)
    skipped = kept = 0
    for _ in range(80):
        phi, gamma, kappa = extreme_weibull(rng, (structure.n_categories, n_actions))
        pairs = panel.live_pairs(phi, gamma, kappa)
        _, want, dropped = left_out(pairs, oracle)
        c = oracle.lp_cell
        with np.errstate(over="ignore"):
            values = weibull_kernel(log_dt, phi.flat[c], gamma.flat[c], kappa.flat[c])
        assert np.all(values[dropped[want]] == 0.0)
        n_live = np.diff(pairs.bounds)
        assert not n_live[(phi * gamma * kappa).ravel() == 0].any()
        skipped += int(n_all.sum() - n_live.sum())
        kept += int(n_live.sum())
    assert skipped > 0 and kept > 0
    # the far user's pairs from t = 0 sit in cell 0, where kappa log(dt)
    # reaches the kernel's power cap: that cell keeps all of its pairs
    shape = (structure.n_categories, n_actions)
    ones = np.ones(shape)
    assert KAPPA_MAX * log_dt[oracle.lp_cell == 0].max() >= POWER_LOG_CAP
    pairs = panel.live_pairs(ones, ones, np.full(shape, KAPPA_MAX))
    assert pairs.bounds[1] - pairs.bounds[0] == n_all[0]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_responsibilities_match_all_pairs_oracle(seed):
    """The E step's r against the oracle's r_raw / lam pair by pair; the
    oracle's pairs it leaves out have r exactly 0.  With phi = 0 everywhere
    no pair is built and lam still matches."""
    rng = np.random.default_rng(seed)
    n_actions = 3
    hs = histories(rng, n_actions)
    p = random_params(rng, n_actions=n_actions, horizon=HORIZON,
                      users=tuple(h.user for h in hs), kappa_range=(0.3, 6.0))
    panel = build_panel(hs, p.structure, HORIZON)
    oracle = pair_panel(hs, p.structure, HORIZON)
    for q in (p, replace(p, phi=np.zeros_like(p.phi))):
        _, _, _, r_raw, lam_pairs = pair_event_contributions(q, oracle)
        resp, lam = _e_step_panel(q, panel)
        close(lam, lam_pairs)
        got, want, dropped = left_out(resp.pairs, oracle)
        # the oracle's r of each id (pairs with one id have one r)
        r_id = np.zeros(dropped.size)
        r_id[want] = r_raw / lam_pairs[oracle.lp_dst]
        close(resp.r, r_id[got])
        assert np.all(r_id[dropped] == 0.0)
        np.testing.assert_allclose(event_totals(resp), 1.0, atol=1e-12)
        if q is p:
            assert dropped.any() and got.size
    assert resp.pairs.dst.size == 0 and resp.r.size == 0


def test_decay_sums_reads_the_index_in_place():
    """decay_sums scatters over the read-only ``cp_slot`` without copying it:
    it peaks no higher on the panel than on a writeable copy of the panel.
    ``np.bincount`` would first copy a read-only index, an int64 allocation
    the size of ``cp_slot``."""
    rng = np.random.default_rng(5)
    n, n_actions = 2000, 5
    h = UserHistory.from_arrays(
        "u1", np.sort(rng.uniform(0.0, 2000.0, n)), rng.integers(0, n_actions, n)
    )
    p = random_params(rng, n_actions=n_actions, horizon=2000.0)
    panel = build_panel([h], p.structure, 2000.0)
    writeable = replace(panel, **{
        f: getattr(panel, f).copy() for f in panel.__dataclass_fields__
        if isinstance(getattr(panel, f), np.ndarray)
    })
    assert not panel.cp_slot.flags.writeable and writeable.cp_slot.flags.writeable
    peaks = []
    for q in (panel, writeable):
        tracemalloc.start()
        try:
            decay_sums(q, p.omega)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < peaks[1] + panel.cp_slot.nbytes / 2


def test_chunks_never_split_ties():
    rng = np.random.default_rng(7)
    hs = histories(rng, 2)
    panel = build_panel(hs, random_params(rng, horizon=HORIZON).structure, HORIZON)
    starts = np.flatnonzero(np.diff(panel.ev_chunk, prepend=-1))
    inner = starts[panel.ev_pos[starts] > 0]
    assert np.all(panel.ev_t[inner] - panel.ev_t[inner - 1] >= TIE_EPSILON)
    # the tie run straddling the first boundary of each long user stays whole
    for s in np.flatnonzero(panel.ev_pos == 0):
        if panel.ev_user[s] >= 4:
            run = panel.ev_chunk[s + CHUNK_EVENTS - 5 : s + 2 * CHUNK_EVENTS + 5]
            assert np.all(run == run[0])
    sizes = np.bincount(panel.ev_chunk)
    assert panel.cp_dt.size == int((sizes * (sizes - 1) // 2).sum())
    assert panel.ch_t.size == sizes.size


def test_memory_is_a_fraction_of_all_pairs():
    """Building the panel and one E step on a 2,000-event, 5-action user
    peak below a quarter of the all-pairs panel's bytes: four 8-byte arrays
    for every event pair, and four for every same-action pair.  No panel
    array grows with the same-action pairs."""
    rng = np.random.default_rng(5)
    n, n_actions = 2000, 5
    actions = rng.integers(0, n_actions, n)
    h = UserHistory.from_arrays("u1", np.sort(rng.uniform(0.0, 2000.0, n)), actions)
    p = random_params(rng, n_actions=n_actions, horizon=2000.0)
    tracemalloc.start()
    try:
        panel = build_panel([h], p.structure, 2000.0)
        _e_step_panel(p, panel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_action = np.bincount(actions)
    same_action_pairs = int((per_action * (per_action - 1) // 2).sum())
    all_pairs_bytes = 32 * (n * (n - 1) // 2 + same_action_pairs)
    assert peak < all_pairs_bytes / 4
    sizes = [getattr(panel, f).size for f in panel.__dataclass_fields__
             if isinstance(getattr(panel, f), np.ndarray)]
    assert max(sizes) <= n * CHUNK_EVENTS < same_action_pairs
