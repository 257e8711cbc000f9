"""One workload of the tipas benchmark, run in a process of its own.

``run.py`` starts this file; see README.md for the workloads, metrics and
checks.  Roles:

* ``--role setup``: time the set-up once (import tipas, sample and write the
  inputs, load them) and print ``{"setup_s": ...}``.
* ``--role main``: set up, then run whole rounds of the user-facing stages
  until ``--seconds`` have passed, check every output, and print the result.
  With ``--trace 1`` it then reruns the stages with spans around each layer
  and times the layers' public functions directly.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up starts before the heavy imports

import argparse
import inspect
import json
import math
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
import tracing

ROOT = Path(__file__).resolve().parent.parent
HOURS = 24.0
ACTION_NAMES = tuple(f"a{i}" for i in range(10))  # sort order == index order
MEASURE_LIMIT_S = 110.0  # cap on --seconds, so a run ends within its time limit
# Operations that fail on every run because of a known fault in the program
# (README.md, *The known failures*).  They count in `failed`, not in `correct`.
KNOWN_FAULTS = ("score_fractional", "fit_monotone_probe")

RECOVERY_TRUTH = ref.Params(
    users=("tmpl",),
    alpha=np.zeros((1, 2)),
    beta=np.array([[0.30], [0.30]]),
    mu=np.array([[9.0], [15.0]]),
    sigma=np.array([[2.0], [2.5]]),
    theta=np.array([[0.10, 0.25], [0.15, 0.10]]),
    omega=np.array([[12.0, 3.0], [2.5, 12.0]]),
    phi=np.full((2, 2), 0.35),
    gamma=np.full((2, 2), 0.25),
    kappa=np.ones((2, 2)),
    tod_edges=(0.0, 12.0, 24.0),
)

# Relative tolerance of each recovered parameter on `recovery`: five times the
# largest root-mean-square relative error over the cells of that parameter,
# measured over 24 seeds at the CLI tolerance (see README.md).  A value
# outside it is a broken estimator, not sampling noise.
RECOVERY_TOL = {
    "beta": 0.30, "mu": 0.03, "sigma": 0.35, "theta": 0.45,
    "omega": 0.60, "phi": 0.40, "gamma": 0.90, "kappa": 0.65,
}


def demo_truth() -> ref.Params:
    with open(ROOT / "src" / "tipas" / "data" / "demo_spec.json") as fh:
        return ref.params_from_doc(json.load(fh)["model"])


@dataclass(frozen=True)
class Workload:
    name: str
    key: int  # mixed into every seed so workloads never share draws
    truth: ref.Params
    n_users: int
    days: int | None  # observation length, or None: observe until target_events
    target_events: int | None  # one user, observed until this many events
    target_pairs: int | None  # keep the candidate draw with the nearest pair count
    fit_flags: tuple  # passed to both fit and evaluate
    eval_flags: tuple  # passed to evaluate only
    window_days: int | None  # evaluate's windows; None: half the span
    n_action_queries: int
    n_time_queries: int
    gen_users: int  # the spec the program's generator runs on: users ...
    gen_days: int  # ... and days; it and its seed are fixed per workload, so the
    # output (and its per-event cost) never moves with --seed
    repeats: int  # runs a round of evaluate, generate and the time queries
    gen_calls: int  # generate calls per repeat
    monotone_fit: bool  # check that the fit's log-likelihood trace never falls


# The window fits inside `evaluate` run a fixed number of EM iterations: at
# the CLI tolerance the ablated variants stop anywhere between 70 and 360
# iterations depending on the sample, which would make evaluate_s measure
# the sample rather than the program.
EVAL_ITERS = ("--max-iters", "40")


def workloads() -> dict:
    demo = demo_truth()
    return {
        "demo": Workload(
            name="demo", key=1, truth=demo, n_users=12, days=60, target_events=None,
            # the median over 300 draws is 91.7k pairs, the quartiles 87k and 97k
            target_pairs=92_000,
            fit_flags=("--mixtures", "3"), eval_flags=EVAL_ITERS, window_days=30,
            n_action_queries=1000, n_time_queries=10,
            gen_users=12, gen_days=15, repeats=2, gen_calls=2,
            # the 500-iteration trace falls on some draws (README.md); the
            # fixed-input probe checks monotonicity here instead
            monotone_fit=False,
        ),
        "recovery": Workload(
            name="recovery", key=2, truth=RECOVERY_TRUTH, n_users=200, days=30,
            target_events=None, target_pairs=None, fit_flags=("--mixtures", "1", "--windows", "2"),
            eval_flags=EVAL_ITERS, window_days=15,
            n_action_queries=1000, n_time_queries=24,
            gen_users=50, gen_days=30, repeats=1, gen_calls=1, monotone_fit=True,
        ),
        # A 500-iteration fit of 2k events takes over two minutes.  At 1.5k
        # events and 15 iterations two rounds fit in a run, and the fit still
        # times the per-iteration pair-panel work this workload exists for.
        "long_history": Workload(
            name="long_history", key=3, truth=demo, n_users=1, days=None,
            target_events=1500, target_pairs=None, fit_flags=("--mixtures", "3", "--max-iters", "15"),
            eval_flags=(), window_days=None,
            n_action_queries=400, n_time_queries=8,
            gen_users=1, gen_days=100, repeats=1, gen_calls=6, monotone_fit=True,
        ),
    }


# ---------------------------------------------------------------------------
# set-up: inputs from the benchmark's own sampler
# ---------------------------------------------------------------------------


CANDIDATES = 8  # draws a target_pairs workload chooses from


def draw_users(w: Workload, T: float, *key) -> list:
    """[(user, times, actions)]: one draw of the workload's users on [0, T]."""
    return [
        (f"u{i:03d}", *ref.sample_user(w.truth, w.truth.alpha_row(""), T,
                                       np.random.default_rng([*key, i])))
        for i in range(w.n_users)
    ]


def pair_count(inputs: list) -> int:
    return sum(t.size * (t.size - 1) // 2 for _, t, _ in inputs)


def sample_inputs(w: Workload, seed: int) -> tuple[list, float]:
    """[(user, times, actions)] and the observation horizon in hours."""
    if w.target_events is None:
        T = w.days * HOURS
        if w.target_pairs is None:
            return draw_users(w, T, seed, w.key, 0), T
        # The fit's cost per iteration follows the pair count, which varies
        # by 9% (sd) between draws of demo's 12 users.  Choosing the nearest
        # of a fixed number of draws keeps the cost from moving with the seed.
        draws = [draw_users(w, T, seed, w.key, 0, c) for c in range(CANDIDATES)]
        return min(draws, key=lambda d: abs(pair_count(d) - w.target_pairs)), T
    # Observe one user up to the first even day count with enough events, so
    # the pair count barely moves between seeds and the evaluation windows
    # (half the span each) start at midnight.
    rng = np.random.default_rng([seed, w.key, 0, 0])
    t, a = ref.sample_user(w.truth, w.truth.alpha_row(""), 3 * w.target_events * HOURS, rng)
    if t.size < w.target_events:
        raise RuntimeError("sampler produced too few events for long_history")
    days = 2 * math.ceil((math.floor(t[w.target_events - 1] / HOURS) + 1) / 2)
    keep = t < days * HOURS
    return [("u000", t[keep], a[keep])], days * HOURS


def write_jsonl(path: Path, inputs: list) -> None:
    with open(path, "w") as fh:
        for user, times, actions in inputs:
            for t, a in zip(times.tolist(), actions.tolist()):
                fh.write(json.dumps({"user": user, "action": ACTION_NAMES[a], "t": t}) + "\n")


def write_truth_model(path: Path, p: ref.Params, users, horizon: float) -> ref.Params:
    """The ground truth as a tipas model file, one alpha row per user."""
    p = p.for_users(users)
    doc = {"schema_version": 1, "kind": "tipas-model", "metadata": {},
           "actions": list(ACTION_NAMES[: p.n_actions]), **p.to_doc(horizon)}
    path.write_text(json.dumps(doc))
    return p


def write_spec(path: Path, w: Workload) -> None:
    doc = {
        "schema_version": 1,
        "kind": "tipas-synthetic-spec",
        "n_users": w.gen_users,
        "horizon": w.gen_days * HOURS,
        "seed": w.key,
        "actions": list(ACTION_NAMES[: w.truth.n_actions]),
        "model": w.truth.to_doc(w.gen_days * HOURS),
    }
    path.write_text(json.dumps(doc))


@dataclass
class Setup:
    work: Path
    inputs: list
    T: float
    histories: tuple  # as loaded by the program
    data: Path
    spec: Path
    truth_model: Path  # the predictions run on the ground truth, fixed per workload
    truth: ref.Params
    seconds: float


def setup(w: Workload, seed: int, work: Path) -> Setup:
    work.mkdir(parents=True, exist_ok=True)
    import tipas

    if Path(tipas.__file__).resolve().parent != ROOT / "src" / "tipas":
        raise RuntimeError(f"imported tipas from {tipas.__file__}, not from {ROOT / 'src'}")
    inputs, T = sample_inputs(w, seed)
    data, spec, truth_model = work / "input.jsonl", work / "spec.json", work / "truth.json"
    write_jsonl(data, inputs)
    write_spec(spec, w)
    truth = write_truth_model(truth_model, w.truth, [u for u, _, _ in inputs], T)
    loaded = tipas.load_dataset(data)
    seconds = time.perf_counter() - T0
    if loaded.vocabulary != ACTION_NAMES[: w.truth.n_actions]:
        raise RuntimeError(f"unexpected vocabulary {loaded.vocabulary}")
    return Setup(work, inputs, T, loaded.histories, data, spec, truth_model, truth, seconds)


# ---------------------------------------------------------------------------
# query sets
# ---------------------------------------------------------------------------


def action_queries(w: Workload, s: Setup) -> list:
    """(history index, prefix length k): predict event k from events[:k] at
    its own time.  Positions are spread evenly over each user's history."""
    per_user = math.ceil(w.n_action_queries / w.n_users)
    out = []
    for j in range(w.n_action_queries):
        u = j % w.n_users
        n = len(s.histories[u])
        out.append((u, 1 + int((j // w.n_users + 0.5) / per_user * (n - 1))))
    return out


def time_queries(w: Workload, s: Setup) -> list:
    """(history index, prefix length k): predict the wait after event k-1.

    A prediction costs about (prefix length) x (hours simulated), and the
    wait varies tenfold between prefixes.  So prefixes come from the last
    tenth of a history, and the queries sit at evenly spaced quantiles of
    the reference mean wait over (at most 150 of) those candidates: the
    set's cost then follows the model's distribution of waits, not the draw.
    """
    cand = [
        (u, k) for u, (_, times, _) in enumerate(s.inputs)
        for k in range(max(1, math.ceil(0.9 * times.size)), times.size + 1)
    ]
    cand = [cand[i * len(cand) // 150] for i in range(min(150, len(cand)))]
    # a coarse quadrature ranks the waits as the exact one does, 5x faster
    wait = [
        ref.first_arrival_moments(s.truth, user, times[:k], actions[:k], 120.0, per_piece=4)[0]
        for user, times, actions, k in ((*s.inputs[u], k) for u, k in cand)
    ]
    order = np.argsort(wait, kind="stable")
    q = w.n_time_queries
    return [cand[order[(2 * j + 1) * len(cand) // (2 * q)]] for j in range(q)]


# ---------------------------------------------------------------------------
# one round of the user-facing stages
# ---------------------------------------------------------------------------


@dataclass
class Round:
    calls: dict = field(default_factory=dict)  # stage -> wall seconds of each call
    generated: list = field(default_factory=list)  # output of each generate call
    model: bytes = b""
    reports: list = field(default_factory=list)  # output of each evaluate call
    fit_report: object = None
    n_generated: int = 0
    actions: list = field(default_factory=list)  # (action, intensities), last pass
    action_s: list = field(default_factory=list)  # per action query: seconds of each call
    predicted_times: list = field(default_factory=list)  # per time query: (time, n_censored) of each call
    time_ms: list = field(default_factory=list)  # per time query: ms of each call
    score: object = None
    frac_score: object = None
    probe_trace: list = field(default_factory=list)


def cli_paths(s: Setup) -> dict:
    return {k: s.work / k for k in ("generated.jsonl", "model.json", "report.json")}


def run_cli(cli, argv: list) -> float:
    start = time.perf_counter()
    code = cli.main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"tipas {argv[0]} exited with {code}")
    return elapsed


def stage_commands(w: Workload, s: Setup) -> dict:
    p = cli_paths(s)
    return {
        "generate": ["generate", "--spec", str(s.spec), "--out", str(p["generated.jsonl"])],
        "fit": ["fit", "--data", str(s.data), "--out", str(p["model.json"]),
                "--horizon", repr(s.T), *w.fit_flags],
        "evaluate": ["evaluate", "--data", str(s.data), "--no-time", "--baselines", "all",
                     "--window-days", str(window_days(w, s)), "--out", str(p["report.json"]),
                     *w.fit_flags, *w.eval_flags],
    }


def window_days(w: Workload, s: Setup) -> int:
    return w.window_days or int(round(s.T / HOURS)) // 2


def run_round(w: Workload, s: Setup, aq: list, tq: list, frac: tuple | None,
              probe: tuple | None) -> Round:
    """One round: fit, then ``w.repeats`` times evaluate, ``w.gen_calls``
    generate calls and every time query, with a pass over the action
    queries after the fit, after each evaluate, after each repeat's time
    queries and at the end (see README.md, *Noise*)."""
    import tipas
    from tipas import cli

    r = Round()
    cmds = stage_commands(w, s)
    p = cli_paths(s)
    params, _, _ = tipas.load_model(s.truth_model)
    tasks = [
        tipas.PredictionTask(
            user=s.histories[u].user,
            history_prefix=s.histories[u].events[:k],
            t=s.histories[u].events[k].t,
        )
        for u, k in aq
    ]
    r.action_s = [[] for _ in tasks]
    r.time_ms = [[] for _ in tq]
    r.predicted_times = [[] for _ in tq]
    r.calls = {"fit": [], "evaluate": [], "generate": []}

    fits = []

    def fit_keeping(*args, **kwargs):  # keeps the FitReport the CLI discards
        fits.append(cli_fit(*args, **kwargs))
        return fits[-1]

    cli_fit = cli.fit
    with tracing.patched(cli, "fit", fit_keeping):
        r.calls["fit"].append(run_cli(cli, cmds["fit"]))
    r.fit_report = fits[0][1]
    r.model = p["model.json"].read_bytes()
    action_pass(params, tasks, r.action_s)

    # the generate calls sit evenly between the time queries
    gen_slots = [c * len(tq) // w.gen_calls for c in range(w.gen_calls)]
    for _ in range(w.repeats):
        r.calls["evaluate"].append(run_cli(cli, cmds["evaluate"]))
        r.reports.append(p["report.json"].read_bytes())
        action_pass(params, tasks, r.action_s)
        for i, (u, k) in enumerate(tq):
            for _ in range(gen_slots.count(i)):
                r.calls["generate"].append(run_cli(cli, cmds["generate"]))
                r.generated.append(p["generated.jsonl"].read_bytes())
            h = s.histories[u]
            prefix = h.events[:k]
            start = time.perf_counter()
            pred = tipas.predict_next_time(params, h.user, prefix)
            r.time_ms[i].append((time.perf_counter() - start) * 1e3)
            r.predicted_times[i].append((pred.time, pred.n_censored))
        action_pass(params, tasks, r.action_s)
    r.n_generated = r.generated[0].count(b"\n")

    preds = action_pass(params, tasks, r.action_s)
    r.actions = [(pr.action, np.asarray(pr.intensities)) for pr in preds]

    fitted, _, _ = tipas.load_model(p["model.json"])
    r.score = tipas.log_likelihood(fitted, s.histories, s.T)
    if frac is not None:
        frac_params, frac_hist, T_frac = frac
        r.frac_score = tipas.log_likelihood(frac_params, frac_hist, T_frac)
    if probe is not None:
        _, rep = tipas.fit(*probe)
        r.probe_trace = [v.total for v in rep.ll_trace]
    return r


def action_pass(params, tasks: list, seconds: list) -> list:
    """One call per action query, each timed into ``seconds[i]``."""
    import tipas

    preds = []
    for i, task in enumerate(tasks):
        start = time.perf_counter()
        preds.append(tipas.predict_next_action(params, task))
        seconds[i].append(time.perf_counter() - start)
    return preds


def fractional_input(w: Workload, work: Path):
    """long_history's known-fault probe: the demo truth scored on a horizon
    ending at 09:00, on a fixed input (the same for every seed)."""
    import tipas

    inputs, T = sample_inputs(w, 0)
    T_frac = T - HOURS + 9.0
    user, times, actions = inputs[0]
    keep = times < T_frac
    hist = tipas.UserHistory(
        user,
        tuple(tipas.EventRecord(int(a), float(t)) for t, a in zip(times[keep], actions[keep])),
    )
    truth = write_truth_model(work / "truth_fractional.json", w.truth, [user], T_frac)
    params, _, _ = tipas.load_model(work / "truth_fractional.json")
    return (params, [hist], T_frac), (truth, [(user, times[keep], actions[keep])], T_frac)


# The EM monotonicity probe: demo's single draw for seed 209, on which the exact
# log-likelihood trace of a CLI-default `--mixtures 3` fit falls at
# iterations 40, 42 and 44 (as `falls` numbers them).  The input is the same
# for every --seed.
PROBE_SEED = 209
PROBE_ITERS = 45


def monotone_probe(w: Workload) -> tuple:
    """(histories, FitConfig) of demo's fixed-input EM monotonicity probe."""
    import tipas

    T = w.days * HOURS
    inputs = draw_users(w, T, PROBE_SEED, w.key, 0)
    hists = [
        tipas.UserHistory(user, tuple(tipas.EventRecord(int(a), float(t)) for t, a in zip(times, actions)))
        for user, times, actions in inputs
    ]
    return hists, tipas.FitConfig(n_mixtures=3, n_actions=w.truth.n_actions, horizon=T,
                                  max_iterations=PROBE_ITERS)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def close(a: float, b: float, rtol: float = 1e-9) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def parse_jsonl(raw: bytes, vocab: tuple) -> dict:
    index = {name: i for i, name in enumerate(vocab)}
    per_user: dict = {}
    for line in raw.decode().splitlines():
        rec = json.loads(line)
        per_user.setdefault(rec["user"], []).append((rec["t"], index[rec["action"]]))
    return {
        u: (np.array([t for t, _ in ev]), np.array([a for _, a in ev], dtype=np.int64))
        for u, ev in per_user.items()
    }


def check_generate(w: Workload, raw: bytes) -> list:
    """Problems with the program's generator output (empty when fine)."""
    tr = w.truth
    vocab = ACTION_NAMES[: tr.n_actions]
    problems = []
    try:
        users = parse_jsonl(raw, vocab)
    except (KeyError, ValueError) as exc:
        return [f"generate: unreadable output ({exc})"]
    # the generator names users after the spec's alpha rows when there is
    # one per user, and u00000, u00001, ... when they share a template row
    n, horizon = w.gen_users, w.gen_days * HOURS
    names = tr.users if len(tr.users) == n else tuple(f"u{i:05d}" for i in range(n))
    counts = []
    z = []
    for name in names:
        times, actions = users.get(name, (np.empty(0), np.empty(0, np.int64)))
        counts.append(times.size)
        if times.size == 0:
            continue
        if np.any(np.diff(times) < 0) or times[0] < 0 or times[-1] > horizon:
            problems.append(f"generate: user {name} unsorted or outside [0, {horizon}]")
            continue
        # time-rescaling: compensator increments between events are Exp(1);
        # the censored gap after the last event is left out
        lam = ref.cumulative_intensity(tr, name, times, actions, times)
        z.append(np.diff(np.concatenate([[0.0], lam])))
    if set(users) - set(names):
        problems.append(f"generate: unexpected users {sorted(set(users) - set(names))[:3]}")
    # Mean events per user against the benchmark's own sampler.  The spec
    # and so the output are fixed per workload, and so are these draws, so
    # the verdict is the same on every run.  Under the model both samples
    # share one variance, best estimated from the many reference draws.
    n_ref = 400
    ref_counts = np.array([
        ref.sample_user(tr, tr.alpha_row(""), horizon, np.random.default_rng([w.key, 2, i]))[0].size
        for i in range(n_ref)
    ])
    counts = np.array(counts, dtype=float)
    se = math.sqrt(ref_counts.var(ddof=1) * (1 / counts.size + 1 / n_ref))
    if abs(counts.mean() - ref_counts.mean()) > 5 * se:
        problems.append(
            f"generate: {counts.mean():.2f} events per user, sampler gives "
            f"{ref_counts.mean():.2f} (se {se:.2f})"
        )
    from scipy import stats

    z = np.concatenate(z) if z else np.empty(0)
    if z.size < 20:
        problems.append(f"generate: only {z.size} interarrivals")
    else:
        p = stats.kstest(z, "expon").pvalue
        if p < 1e-6:
            problems.append(f"generate: rescaled interarrivals fail KS against Exp(1), p={p:.2e}")
    return problems


def falls(trace: list) -> list:
    """Iterations where an exact log-likelihood trace fell (beyond rounding)."""
    return [i + 1 for i, (a, b) in enumerate(zip(trace, trace[1:]))
            if b < a - 1e-9 * abs(a)]


def check_fit(w: Workload, s: Setup, r: Round, fitted_ll: tuple) -> list:
    problems = []
    rep = r.fit_report
    fitted = ref.params_from_doc(json.loads(r.model))
    trace = [v.total for v in rep.ll_trace]
    if not rep.final_total > trace[0]:
        problems.append(f"fit: final ll {rep.final_total:.4f} not above the first {trace[0]:.4f}")
    # the trace's last value is the log-likelihood of the model written out
    if not close(rep.final_total, fitted_ll[0] - fitted_ll[1]):
        problems.append(
            f"fit: final ll {rep.final_total!r}, reference ll of the saved model "
            f"{fitted_ll[0] - fitted_ll[1]!r}"
        )
    if w.monotone_fit and falls(trace):
        problems.append(f"fit: log-likelihood fell at iterations {falls(trace)[:5]}")
    # Only a converged fit must beat the truth: demo's 500-iteration fit ends
    # below it on 16 of 20 draws tried, and long_history's is capped at 15.
    if rep.converged:
        event, comp = ref.log_likelihood(w.truth, s.inputs, s.T)
        truth_ll = event - comp
        if rep.final_total < truth_ll - 1e-9 * abs(truth_ll):
            problems.append(
                f"fit: converged at ll {rep.final_total:.4f} below the truth's {truth_ll:.4f}"
            )
    if w.name == "recovery":
        for name, tol in RECOVERY_TOL.items():
            est, tru = getattr(fitted, name), getattr(w.truth, name)
            worst = float(np.max(np.abs(est - tru) / np.abs(tru)))
            if worst > tol:
                problems.append(f"fit: {name} off the ground truth by {worst:.3f} (> {tol})")
    return problems


def check_evaluate(w: Workload, s: Setup, raw: bytes) -> list:
    problems = []
    doc = json.loads(raw)
    width = window_days(w, s) * HOURS
    max_t = max(float(t[-1]) for _, t, _ in s.inputs if t.size)
    n_win = math.ceil(max_t / width)
    n_test = 0
    hits = 0
    for k in range(n_win - 1):
        tr_s, tr_e, te_e = k * width, (k + 1) * width, (k + 2) * width
        train = [(t >= tr_s) & (t < tr_e) for _, t, _ in s.inputs]
        test = [(t >= tr_e) & (t < te_e) for _, t, _ in s.inputs]
        if not any(m.any() for m in train) or not any(m.any() for m in test):
            continue
        counts = np.zeros(w.truth.n_actions, dtype=np.int64)
        for (_, _, a), m in zip(s.inputs, train):
            counts += np.bincount(a[m], minlength=w.truth.n_actions)
        majority = int(np.argmax(counts))
        for (_, t, a), m_tr, m_te in zip(s.inputs, train, test):
            seq = a[m_tr | m_te]
            first = int(m_tr.sum())
            for i in range(first, seq.size):
                n_test += 1
                guess = int(seq[i - 1]) if i > 0 else majority
                hits += guess == int(seq[i])
    action_models = {"tipas-time", "tipas-time-short", "tipas", "copy", "pp-global", "pp-user"}
    action_models |= {f"markov{k}" for k in range(1, 6)}
    for name, rep in doc["models"].items():
        want = n_test if name in action_models else 0
        if rep["n_predictions"] != want:
            problems.append(f"evaluate: {name} made {rep['n_predictions']} predictions, expected {want}")
    if len(doc["models"]) != 14:
        problems.append(f"evaluate: {len(doc['models'])} models in the report, expected 14")
    acc = doc["models"].get("copy", {}).get("accuracy")
    if acc is None or not close(acc, hits / n_test, 1e-12):
        problems.append(f"evaluate: copy accuracy {acc}, recomputed {hits / n_test}")
    return problems


def check_action(p: ref.Params, s: Setup, query: tuple, got: tuple) -> str | None:
    u, k = query
    user, times, actions = s.inputs[u]
    lam = ref.intensity(p, user, times[:k], actions[:k], float(times[k]))
    action, intensities = got
    if action != int(np.argmax(lam)):
        return f"predict_action: user {user} event {k}: action {action}, reference {int(np.argmax(lam))}"
    if intensities.shape != lam.shape or not all(map(close, intensities, lam)):
        return f"predict_action: user {user} event {k}: intensities differ from the reference"
    return None


def default_samples() -> int | None:
    """The predictor's default Monte-Carlo sample count; None if it has none
    (an exact predictor), in which case only quadrature error is allowed."""
    import tipas

    param = inspect.signature(tipas.predict_next_time).parameters.get("n_samples")
    return None if param is None else int(param.default)


def check_time(p: ref.Params, s: Setup, query: tuple, got: tuple, n_samples) -> str | None:
    u, k = query
    user, times, actions = s.inputs[u]
    mean, var = ref.first_arrival_moments(p, user, times[:k], actions[:k], 120.0)
    expected = float(times[k - 1]) + mean
    tol = 2e-3 + (6.0 * math.sqrt(var / n_samples) if n_samples else 0.0)
    if not abs(got[0] - expected) <= tol:
        return (
            f"predict_time: user {user} after event {k - 1}: {got[0]:.4f}, reference "
            f"{expected:.4f} +- {tol:.4f}"
        )
    return None


def check_score(p: ref.Params, inputs: list, T: float, got, want: tuple | None = None) -> str | None:
    event, comp = want or ref.log_likelihood(p, inputs, T)
    if not (close(got.event_term, event) and close(got.compensator, comp)):
        return (
            f"log_likelihood at T={T}: event term {got.event_term!r} / compensator "
            f"{got.compensator!r}, reference {event!r} / {comp!r}"
        )
    return None


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def median(xs) -> float:
    return float(statistics.median(xs))


def stage_calls(rounds: list, stage: str) -> list:
    """Wall seconds of every call of a CLI stage, over all rounds."""
    return [t for r in rounds for t in r.calls[stage]]


def end_to_end(rounds: list, setup_s: float, peak_kib: int) -> dict:
    """Each timing is the median of its calls over the whole run (per query
    for the queries).  On the shared machine a call's fastest time swings
    far more from run to run than its median (README.md, *Noise*).

    predict_time_ms is the mean over the time queries, not their median:
    their costs differ severalfold, so the median of a few queries moves
    with which query lands in the middle, and so with the draw.
    """
    action_s = [median(c for r in rounds for c in r.action_s[i]) for i in range(len(rounds[0].action_s))]
    time_ms = [median(c for r in rounds for c in r.time_ms[i]) for i in range(len(rounds[0].time_ms))]
    m = {
        "setup_s": (setup_s, "s"),
        "generate_events_per_s": (rounds[0].n_generated / median(stage_calls(rounds, "generate")), "events/s"),
        "fit_s": (median(stage_calls(rounds, "fit")), "s"),
        "evaluate_s": (median(stage_calls(rounds, "evaluate")), "s"),
        "predict_action_per_s": (len(action_s) / sum(action_s), "predictions/s"),
        "predict_time_ms": (statistics.fmean(time_ms), "ms"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def verdicts(w: Workload, s: Setup, rounds: list, aq: list, tq: list, frac_ref) -> tuple:
    """(attempted, failed, unexpected problems, all problems) over every round."""
    first = rounds[0]
    fitted = ref.params_from_doc(json.loads(first.model))
    fitted_ll = ref.log_likelihood(fitted, s.inputs, s.T)
    n_samples = default_samples()
    ops = {
        "generate": check_generate(w, first.generated[0]),
        "fit": check_fit(w, s, first, fitted_ll),
        "evaluate": check_evaluate(w, s, first.reports[0]),
    }
    for i, (q, got) in enumerate(zip(aq, first.actions)):
        ops[f"action{i}"] = [x for x in [check_action(s.truth, s, q, got)] if x]
    for i, (q, got) in enumerate(zip(tq, first.predicted_times)):
        ops[f"time{i}"] = [x for x in [check_time(s.truth, s, q, got[0], n_samples)] if x]
    ops["score"] = [x for x in [check_score(fitted, s.inputs, s.T, first.score, fitted_ll)] if x]
    if frac_ref is not None:
        ops["score_fractional"] = [x for x in [check_score(*frac_ref, first.frac_score)] if x]
    if first.probe_trace:
        drops = falls(first.probe_trace)
        ops["fit_monotone_probe"] = (
            [f"fit_monotone_probe: log-likelihood fell at iterations {drops}"] if drops else []
        )
    attempted = failed = 0
    problems, unexpected = [], []
    for r in rounds:
        # every repeated call within the round must repeat the first one
        same = (
            all(g == first.generated[0] for g in r.generated)
            and all(x == first.reports[0] for x in r.reports) and r.model == first.model
            and all(x == first.predicted_times[i][0] for i, q in enumerate(r.predicted_times) for x in q)
            and r.score == first.score and r.frac_score == first.frac_score
            and r.probe_trace == first.probe_trace
            and all(a[0] == b[0] and np.array_equal(a[1], b[1])
                    for a, b in zip(r.actions, first.actions))
        )
        for name, found in ops.items():
            attempted += 1
            if not same:
                found = found + [f"{name}: output differs between rounds of one run"]
            if found:
                failed += 1
                problems.extend(found)
                if name not in KNOWN_FAULTS or not same:
                    unexpected.extend(found)
    return attempted, failed, unexpected, list(dict.fromkeys(problems))


def main_role(args, w: Workload, work: Path) -> dict:
    s = setup(w, args.seed, work)
    aq = action_queries(w, s)
    tq = time_queries(w, s)
    frac_prog, frac_ref = fractional_input(w, work) if w.name == "long_history" else (None, None)
    probe = monotone_probe(w) if w.name == "demo" else None
    rounds = []
    start = time.perf_counter()
    limit = min(args.seconds, MEASURE_LIMIT_S)
    while True:
        t_round = time.perf_counter()
        rounds.append(run_round(w, s, aq, tq, frac_prog, probe))
        now = time.perf_counter()
        rounds[-1].calls["round"] = [now - t_round]
        # whole rounds only: stop when another one like the last would not
        # end within --seconds (the first round always runs)
        if now - start + (now - t_round) > limit:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = end_to_end(rounds, s.seconds, peak_kib)
    if args.trace:
        tracer = tracing.Tracer()
        metrics = tracing.per_layer(s, rounds, aq, stage_commands(w, s), cli_paths(s), tracer)
        tracer.dump(ROOT / ".bench_trace" / f"{w.name}-seed{args.seed}.json")
    t_check = time.perf_counter()
    attempted, failed, unexpected, problems = verdicts(w, s, rounds, aq, tq, frac_ref)
    for i, r in enumerate(rounds):
        print(
            f"round {i}: " + ", ".join(f"{k}=" + "/".join(f"{v:.2f}" for v in vs) + "s"
                                       for k, vs in r.calls.items())
            + f", time queries={sum(map(sum, r.time_ms)) / 1e3:.2f}s",
            file=sys.stderr,
        )
    print(f"checks: {time.perf_counter() - t_check:.2f}s", file=sys.stderr)
    for p in problems:
        print(f"check: {p}", file=sys.stderr)
    return {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "rounds": len(rounds),
        "setup_s": s.seconds,
    }


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--role", choices=("setup", "main"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", required=True)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    w = workloads()[args.workload]
    work = Path(args.work)
    try:
        if args.role == "setup":
            result = {"setup_s": setup(w, args.seed, work).seconds}
        else:
            result = main_role(args, w, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
