"""The chunked exponential-kernel sums against the all-pairs oracle."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import xlogy

from tipas import UserHistory
from tipas._panel import CHUNK_EVENTS, build_panel
from tipas.inference import PARAM_FLOOR, _e_step_panel, exponential_objective, m_step_closed
from tipas.likelihood import tail_masses
from tipas.model import TIE_EPSILON

from conftest import random_params
from oracles import pair_event_contributions, pair_panel

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
    np.testing.assert_allclose(resp.event_totals(), 1.0, atol=1e-12)

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

    # the Weibull pairs are the oracle's same-action pairs
    got = sorted(zip(panel.lp_src.tolist(), panel.lp_dst.tolist()))
    assert got == sorted(zip(oracle.lp_src.tolist(), oracle.lp_dst.tolist()))
    assert np.array_equal(panel.sp_src, oracle.sp_src)


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
    for every event pair, and four for every same-action pair."""
    rng = np.random.default_rng(5)
    n, n_actions = 2000, 5
    h = UserHistory.from_arrays(
        "u1", np.sort(rng.uniform(0.0, 2000.0, n)), rng.integers(0, n_actions, n)
    )
    p = random_params(rng, n_actions=n_actions, horizon=2000.0)
    tracemalloc.start()
    try:
        panel = build_panel([h], p.structure, 2000.0)
        _e_step_panel(p, panel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    all_pairs_bytes = 32 * (n * (n - 1) // 2 + panel.lp_dst.size)
    assert peak < all_pairs_bytes / 4
