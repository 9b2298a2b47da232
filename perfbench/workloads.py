"""The benchmark's workloads, run one per process by run.py.

Each workload is a closed loop with one client: it clusters one event at
a time and starts the next only when the previous one has returned.

Events come from `harness.generate_events` on the desk configuration
with the workload seed as `rng_seed`.  They are grouped, in generation
order, into rounds of a fixed leaf-count composition, so that two seeds
give different events but the same mix of problem sizes; that keeps the
run-to-run spread of every metric small while each seed still draws new
inputs.  Each composition is apportioned from the measured desk
distribution of leaf counts (DESK_SHARES): a slot takes events of one
leaf count, or of a range of rare counts.  The selected events go
through `write_events` and `load_events`, the JSONL path the CLI uses,
before anything is timed.

A run always completes `min_rounds` rounds.  The deterministic figures
(mean log-likelihood, counted evaluations, the fingerprint and the tail
percentile's sample count) come from those rounds only, so they repeat
exactly under a seed.  Further rounds run while another one fits into
`--seconds`; past the pool of distinct rounds the pool repeats.

Usage (normally started by run.py, which pins BLAS to one thread):

    PYTHONPATH=src python3 perfbench/workloads.py --workload search \
        --seed 0 --seconds 20 --trace 0 --result out.json
"""

import time

_IMPORT_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from collections import defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from jetclust import harness, planners, policy, trellis  # noqa: E402
from jetclust.costs import PS_EVALUATIONS  # noqa: E402
from jetclust.rng import make_rng  # noqa: E402

_IMPORT_END = time.perf_counter()

import checks  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

SEARCH_PLANNER = {"algo": "mcts", "n_mcts": 20, "b": 5, "prior": "proportional-to-ps"}
BC_LR = 0.03  # the CLI's default
SETUP_REPEATS = 3
EXACT_LEAF_COUNTS = (9, 10, 11, 12)
TAIL_BEYOND = 10  # events beyond the tail percentile


@dataclass(frozen=True)
class Spec:
    """composition: (lowest, highest) leaf count -> events per round (the
    held-out roll-out events for train).  n_generate events are simulated
    per seed, enough to fill pool_rounds rounds in practically every
    seed."""

    composition: dict
    n_generate: int
    min_rounds: int
    pool_rounds: int
    warm_leaves: tuple  # leaf-count range of the warm-up events; one size keeps set-up alike across seeds
    train_events: int = 0  # train: BC events per round, disjoint from the held-out ones
    bc_steps: int = 0


# Leaf-count shares (%) of harness.generate_events(DESK_CONFIG), measured
# over seeds 0-9 with 800 events each.  Counts below 6 or above 26 (0.3%)
# are left out: the small ones need no search, and one 27-31-leaf MCTS
# event would take a third of a run.
DESK_SHARES = {6: 0.41, 7: 0.69, 8: 1.39, 9: 2.62, 10: 4.11, 11: 5.66, 12: 7.09, 13: 8.79,
               14: 10.21, 15: 10.30, 16: 10.84, 17: 9.65, 18: 8.35, 19: 6.48, 20: 4.89,
               21: 3.09, 22: 2.39, 23: 1.52, 24: 0.66, 25: 0.34, 26: 0.19}
# One slot per common leaf count; the rare ones share a slot.
DESK_SLOTS = [(6, 9), *((n, n) for n in range(10, 20)), (20, 21), (22, 26)]


def apportion(slots, size: int) -> dict:
    """Events per slot in a round of `size`: each slot's desk share
    times `size`, rounded by largest remainder."""
    share = {s: sum(DESK_SHARES[n] for n in range(s[0], s[1] + 1)) for s in slots}
    quota = {s: size * v / sum(share.values()) for s, v in share.items()}
    counts = {s: math.floor(q) for s, q in quota.items()}
    for s in sorted(slots, key=lambda s: counts[s] - quota[s])[:size - sum(counts.values())]:
        counts[s] += 1
    return {s: k for s, k in counts.items() if k}


SPECS = {
    # The paper's headline agent.  Beam seeding dominates and the same
    # p_s query repeats many times per event: a memo or a lazy beam shows
    # here.  Sixteen desk events a round keep two rounds within a run;
    # the tail percentile falls among the 16-26-leaf events.
    "search": Spec(apportion(DESK_SLOTS, 16), n_generate=300, min_rounds=2, pool_rounds=3,
                   warm_leaves=(10, 10)),
    # Trellis and kernel only; every p_s query is distinct, so a memo can
    # only cost.  The desk shares of 9-12 leaves, and enough rounds that
    # more than TAIL_BEYOND 12-leaf events lie beyond the tail percentile.
    "exact": Spec(apportion([(n, n) for n in EXACT_LEAF_COUNTS], 8), n_generate=400,
                  min_rounds=4, pool_rounds=4, warm_leaves=(8, 8)),
    # Features and policy dominate: BC on truth demonstrations, then argmax
    # roll-outs of the trained weights over 20 held-out desk events.  The
    # quality of a trained policy varies widely with its seed and data (a
    # few policies score far worse than the rest), so the deterministic
    # prefix trains eight of them on disjoint slices.
    "train": Spec(apportion(DESK_SLOTS, 20), n_generate=1300, min_rounds=8, pool_rounds=8,
                  warm_leaves=(12, 12), train_events=110, bc_steps=1500),
}

# name -> unit; the same names and units as BENCHMARK.json
END_TO_END = {
    "events_per_s": "1/s",
    "decisions_per_s": "1/s",
    "event_ms_p50": "ms",
    "event_ms_tail": "ms",
    "mean_nll": "nats",
    "ps_evals_per_event": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "shower.ps_calls": "count",
    "shower.ps_counted": "count",
    "shower.ps_distinct_ratio": "ratio",
    "shower.ps_us_per_call": "us",
    "shower.ps_self_ms": "ms",
    "env.apply_action_calls": "count",
    "env.apply_action_ms": "ms",
    "env.step_calls": "count",
    "env.step_ms": "ms",
    "env.leaf_sets_ms": "ms",
    "planners.self_ms": "ms",
    "planners.search_nodes": "count",
    "planners.search_node_ms": "ms",
    "planners.prior_ps_calls": "count",
    "trellis.self_ms": "ms",
    "trellis.ps_calls": "count",
    **{f"trellis.event_ms_n{n}": "ms" for n in EXACT_LEAF_COUNTS},
    "features.calls": "count",
    "features.self_ms": "ms",
    "features.us_per_row": "us",
    "policy.loss_and_grad_ms": "ms",
    "policy.truth_actions_ms": "ms",
    "policy.forward_ms": "ms",
    "policy.self_ms": "ms",
    "harness.write_events_ms": "ms",
    "harness.load_events_ms": "ms",
    "harness.dataset_bytes": "bytes",
    "bench.trace_overhead": "ratio",
}
# In train these come from the BC phase, per step; the rest from the
# roll-outs, per held-out event.
BC_PHASE_METRICS = ("features.calls", "features.self_ms", "features.us_per_row",
                    "policy.loss_and_grad_ms", "policy.truth_actions_ms", "policy.self_ms")


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    config: object
    rounds: list  # per round, the events to cluster (held-out roll-outs for train)
    train_sets: list  # train: per round, the BC events
    warm: list
    generate_s: float = 0.0  # times rescaled to the reference speed
    write_s: float = 0.0
    load_s: float = 0.0
    dataset_bytes: int = 0


def plan_rounds(events, spec: Spec):
    """Assign events, in generation order, to rounds of the spec's
    composition; returns (rounds, BC slices, warm-up events)."""
    slot_of = {n: (lo, hi) for lo, hi in spec.composition for n in range(lo, hi + 1)}
    buckets = [{r: [] for r in spec.composition} for _ in range(spec.pool_rounds)]
    spare = []
    for ev in events:
        key = slot_of.get(ev.n_leaves)
        for bucket in buckets:
            if key is not None and len(bucket[key]) < spec.composition[key]:
                bucket[key].append(ev)
                break
        else:
            spare.append(ev)
    rounds = []
    for bucket in buckets:  # buckets fill in order, so complete ones form a prefix
        if any(len(bucket[r]) < k for r, k in spec.composition.items()):
            break
        rounds.append(sorted((e for slot in bucket.values() for e in slot), key=lambda e: e.event_id))
    size = spec.train_events
    if size:
        rounds = rounds[:len(spare) // size]
    train_sets = [spare[k * size:(k + 1) * size] for k in range(len(rounds))] if size else []
    rest = spare[len(rounds) * size:]
    lo, hi = spec.warm_leaves
    warm = [e for e in rest if lo <= e.n_leaves <= hi][:2]
    if size:
        warm = warm + rest[:40]  # BC warm-up set; the roll-out warm-up uses the first two
    if len(rounds) < spec.min_rounds:
        raise RuntimeError(
            f"{len(events)} generated events fill only {len(rounds)} rounds, need {spec.min_rounds}")
    return rounds, train_sets, warm


def generate(workload: str, seed: int, out_dir: Path) -> Inputs:
    """Simulate, select, and round-trip the workload's events through JSONL."""
    spec = SPECS[workload]
    config = dataclasses.replace(harness.DESK_CONFIG, rng_seed=seed)
    path = out_dir / f"events_{workload}_{seed}.jsonl"
    t0 = time.perf_counter()
    rounds, train_sets, warm = plan_rounds(harness.generate_events(config, spec.n_generate), spec)
    chosen = {e.event_id: e for group in rounds + train_sets + [warm] for e in group}
    t1 = time.perf_counter()
    harness.write_events(path, [chosen[k] for k in sorted(chosen)])
    t2 = time.perf_counter()
    loaded = {e.event_id: e for e in harness.load_events(path)}
    t3 = time.perf_counter()

    def swap(group):
        return [loaded[e.event_id] for e in group]

    return Inputs(
        config=config,
        rounds=[swap(r) for r in rounds],
        train_sets=[swap(t) for t in train_sets],
        warm=swap(warm),
        generate_s=reference.scaled(t0, t1),
        write_s=reference.scaled(t1, t2),
        load_s=reference.scaled(t2, t3),
        dataset_bytes=path.stat().st_size,
    )


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

@dataclass
class EventResult:
    event: object
    tree: object
    ll: float | None
    seconds: float  # wall time rescaled to the reference speed
    counted: int  # PS_EVALUATIONS delta over the call
    error: str | None = None
    wall: float = 0.0


@dataclass
class TrainResult:
    steps: int
    seconds: float  # BC time rescaled to the reference speed
    counted: int
    losses: list
    error: str | None
    rollouts: list = field(default_factory=list)
    wall: float = 0.0


def run_events(events, solve, tracer=None) -> list[EventResult]:
    out = []
    for ev in events:
        if tracer is not None:
            tracer.begin_event(ev.event_id)
        c0 = PS_EVALUATIONS.count
        t0 = time.perf_counter()
        try:
            tree, ll = solve(ev) if tracer is None else tracer.span("event", solve, ev)
            error = None
        except Exception as exc:  # a raising event is a failed operation, not a crash
            tree, ll, error = None, None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        counted = PS_EVALUATIONS.count - c0
        out.append(EventResult(ev, tree, ll, reference.scaled(t0, t1), counted, error, t1 - t0))
    return out


def search_solver(config, seed: int):
    planner = harness.build_planner(SEARCH_PLANNER, config)
    return lambda ev: planner(ev.leaves, make_rng(seed, ev.event_id))


def exact_solver(config):
    def solve(ev):
        ll, tree = trellis.exact_mle(ev.leaves, config)
        return tree, ll

    return solve


def train_round(inputs: Inputs, k: int, seed: int, steps: int,
                bc_events=None, heldout=None, tracers=None) -> TrainResult:
    """BC on round k's training events, then argmax roll-outs of the
    trained weights over round k's held-out events."""
    config = inputs.config
    bc_events = inputs.train_sets[k] if bc_events is None else bc_events
    heldout = inputs.rounds[k] if heldout is None else heldout
    bc_tracer, rollout_tracer = tracers or (None, None)
    rng = make_rng(seed, 1_000_003, k)
    args = (bc_events, config, steps, BC_LR, rng)
    c0 = PS_EVALUATIONS.count
    t0 = time.perf_counter()
    try:
        if bc_tracer is None:
            weights, losses = policy.train_bc(*args, include_ps=True)
        else:
            bc_tracer.begin_event(f"bc{k}")
            with spans.installed(bc_tracer):
                weights, losses = bc_tracer.span("event", policy.train_bc, *args, include_ps=True)
        error = None
    except Exception as exc:  # counted as failed steps
        weights, losses, error = None, [], f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    counted = PS_EVALUATIONS.count - c0
    result = TrainResult(steps, reference.scaled(t0, t1), counted, losses, error, wall=t1 - t0)
    if weights is None:
        result.rollouts = [EventResult(ev, None, None, 0.0, 0, f"no weights: {error}") for ev in heldout]
        return result
    prior = policy.NeuralPolicy(weights, config, include_ps=True)

    def solve(ev):
        return planners.cluster_policy(ev.leaves, prior, config)

    if rollout_tracer is None:
        result.rollouts = run_events(heldout, solve)
    else:
        with spans.installed(rollout_tracer):
            result.rollouts = run_events(heldout, solve, rollout_tracer)
    return result


class Workload:
    """One workload's inputs and its pass over round k."""

    def __init__(self, name: str, seed: int, out_dir: Path, setups: int = SETUP_REPEATS):
        self.name = name
        self.seed = seed
        self.spec = SPECS[name]
        self.out_dir = out_dir
        self.setup_s = self._set_up(setups)

    def _set_up(self, setups: int) -> float:
        """Generation, JSONL round trip and an untimed warm-up pass,
        repeated; the import time plus the median repeat.  Each piece is
        rescaled to the reference speed on its own."""
        self.import_s = reference.scaled(_IMPORT_START, _IMPORT_END)
        self.setup_pieces = []  # per repeat: generation, write, load, warm-up
        for _ in range(setups):
            self.inputs = generate(self.name, self.seed, self.out_dir)
            inputs = self.inputs
            self.setup_pieces.append([inputs.generate_s, inputs.write_s, inputs.load_s, self._warm_up()])
        return self.import_s + statistics.median(sum(p) for p in self.setup_pieces)

    def _warm_up(self) -> float:
        """Scaled seconds of the warm-up pass."""
        inputs = self.inputs
        if self.name == "train":
            result = train_round(inputs, 0, self.seed, 300, bc_events=inputs.warm[2:],
                                 heldout=inputs.warm[:2])
            return result.seconds + sum(e.seconds for e in result.rollouts)
        return sum(e.seconds for e in run_events(inputs.warm, self.solver()))

    def solver(self):
        if self.name == "search":
            return search_solver(self.inputs.config, self.seed)
        return exact_solver(self.inputs.config)

    def run_round(self, r: int, tracers=None):
        k = r % len(self.inputs.rounds)
        if self.name == "train":
            return train_round(self.inputs, k, self.seed, self.spec.bc_steps, tracers=tracers)
        if tracers is None:
            return run_events(self.inputs.rounds[k], self.solver())
        with spans.installed(tracers[0]):
            return run_events(self.inputs.rounds[k], self.solver(), tracers[0])

    def phases(self) -> tuple:
        """Names of the traced phases, one tracer each."""
        return ("bc", "rollout") if self.name == "train" else (self.name,)

    def new_tracers(self):
        return tuple(spans.Tracer() for _ in self.phases())


def events_of(round_results) -> list[EventResult]:
    out = []
    for rr in round_results:
        out.extend(rr.rollouts if isinstance(rr, TrainResult) else rr)
    return out


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def failures(workload: str, round_results, config) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over events and, for train, BC steps."""
    attempted = failed = 0
    problems: list[str] = []
    for rr in round_results:
        if isinstance(rr, TrainResult):
            bad = rr.steps if rr.error else (
                sum(1 for loss in rr.losses if not math.isfinite(loss)) + rr.steps - len(rr.losses))
            attempted += rr.steps
            failed += bad
            if bad:
                problems.append(f"BC: {bad} of {rr.steps} steps failed ({rr.error or 'non-finite loss'})")
    for e in events_of(round_results):
        attempted += 1
        if e.error is not None:
            found = [e.error]
        elif workload == "search":
            found = checks.search_problems(e.event, e.tree, e.ll, config)
        elif workload == "exact":
            found = checks.exact_problems(e.event, e.tree, e.ll, e.counted, config)
        else:
            found = checks.check_event(e.event, e.tree, e.ll, config)
        if found:
            failed += 1
            problems.append(f"event {e.event.event_id} (n={e.event.n_leaves}): {'; '.join(found)}")
    return attempted, failed, problems


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail_percentile(n_samples: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND of n_samples
    beyond it (50 at least)."""
    return max(50, math.floor(100.0 * (1.0 - TAIL_BEYOND / n_samples)))


def end_to_end(wl: Workload, round_results) -> tuple[dict, dict]:
    """(metrics, facts) of an untraced run."""
    spec = wl.spec
    events = events_of(round_results)
    prefix = events_of(round_results[:spec.min_rounds])
    if wl.name == "train":
        decisions = sum(rr.steps for rr in round_results)
        decision_s = sum(rr.seconds for rr in round_results)
    else:
        decisions = sum(e.event.n_leaves - 1 for e in events)
        decision_s = sum(e.seconds for e in events)
    ms = [e.seconds * 1e3 for e in events]
    p_tail = tail_percentile(len(prefix))
    lls = [e.ll for e in prefix if e.ll is not None]
    mean_ll = float(np.mean(lls)) if lls else math.nan
    metrics = {
        "events_per_s": len(events) / sum(e.seconds for e in events),
        "decisions_per_s": decisions / decision_s,
        "event_ms_p50": float(np.percentile(ms, 50)),
        "event_ms_tail": float(np.percentile(ms, p_tail)),
        "mean_nll": -mean_ll,
        "ps_evals_per_event": sum(e.counted for e in prefix) / len(prefix),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": wl.setup_s,
    }
    walls = [e.wall * 1e3 for e in events]
    facts = {
        "wall": {  # the same figures unscaled, for reference
            "events_per_s": len(events) / (sum(walls) / 1e3),
            "event_ms_p50": float(np.percentile(walls, 50)),
            "speed": sum(e.seconds for e in events) / sum(e.wall for e in events),
        },
        "mean_ll": mean_ll,
        "fingerprint": checks.fingerprint(prefix),
        "tail_percentile": p_tail,
        "samples": len(events),
        "deterministic_samples": len(prefix),
        "rounds": len(round_results),
        "bc_steps": decisions if wl.name == "train" else 0,
        "setup": {"import_s": wl.import_s, "generate_write_load_warm_s": wl.setup_pieces},
    }
    return metrics, facts


def layer_metrics(tr: spans.Tracer, units: int, time_scale: float) -> dict:
    """Per-unit counts and self times of one tracer; times are multiplied
    by time_scale, the pass's factor to the reference speed."""
    calls = tr.calls
    self_s = {k: v * time_scale for k, v in tr.self_s.items()}
    self_s = defaultdict(float, self_s)
    ps_calls = sum(calls[k] for k in spans.KERNEL_NAMES)
    ps_s = sum(self_s[k] for k in spans.KERNEL_NAMES)

    def per(x):
        return x / units

    return {
        "shower.ps_calls": per(ps_calls),
        "shower.ps_distinct_ratio": tr.distinct_pairs / ps_calls if ps_calls else 0.0,
        "shower.ps_us_per_call": ps_s * 1e6 / ps_calls if ps_calls else 0.0,
        "shower.ps_self_ms": per(ps_s * 1e3),
        "env.apply_action_calls": per(calls["env.apply_action"]),
        "env.apply_action_ms": per(self_s["env.apply_action"] * 1e3),
        "env.step_calls": per(calls["env.step"]),
        "env.step_ms": per(self_s["env.step"] * 1e3),
        "env.leaf_sets_ms": per(self_s["env.leaf_sets"] * 1e3),
        "planners.self_ms": per((self_s["planners.cluster_mcts"] + self_s["planners.cluster_policy"]) * 1e3),
        "planners.search_nodes": per(calls["planners.search_node"]),
        "planners.search_node_ms": per(self_s["planners.search_node"] * 1e3),
        "planners.prior_ps_calls": per(tr.kernel_under["planners.search_node"]),
        "trellis.self_ms": per(self_s["trellis.exact_mle"] * 1e3),
        "trellis.ps_calls": per(calls["kernel.trellis"]),
        "features.calls": per(calls["features.extract"]),
        "features.self_ms": per(self_s["features.extract"] * 1e3),
        "features.us_per_row": self_s["features.extract"] * 1e6 / tr.feature_rows if tr.feature_rows else 0.0,
        "policy.loss_and_grad_ms": per(self_s["policy.loss_and_grad"] * 1e3),
        "policy.truth_actions_ms": per(self_s["policy.truth_actions"] * 1e3),
        "policy.forward_ms": per(self_s["policy.forward"] * 1e3),
        "policy.self_ms": per(self_s["policy.train_bc"] * 1e3),
    }


def traced_pass_metrics(wl: Workload, round_results, tracers) -> dict:
    events = events_of(round_results)
    for tr in tracers:
        tr.end()
    time_scale = sum(e.seconds for e in events) / sum(e.wall for e in events)
    metrics = layer_metrics(tracers[-1], len(events), time_scale)
    if wl.name == "train":
        steps = sum(rr.steps for rr in round_results)
        bc_scale = sum(rr.seconds for rr in round_results) / sum(rr.wall for rr in round_results)
        bc = layer_metrics(tracers[0], steps, bc_scale)
        metrics.update({k: bc[k] for k in BC_PHASE_METRICS})
    metrics["shower.ps_counted"] = sum(e.counted for e in events) / len(events)
    return metrics


def round_seconds(rr) -> float:
    """Scaled time of one round: its events, plus BC on train."""
    if isinstance(rr, TrainResult):
        return rr.seconds + sum(e.seconds for e in rr.rollouts)
    return sum(e.seconds for e in rr)


def counted_per_op(round_results) -> list[int]:
    out = [rr.counted for rr in round_results if isinstance(rr, TrainResult)]
    return out + [e.counted for e in events_of(round_results)]


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def run_untraced(wl: Workload, seconds: float) -> dict:
    results = []
    start = time.perf_counter()
    last = 0.0
    while len(results) < wl.spec.min_rounds or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        results.append(wl.run_round(len(results)))
        last = time.perf_counter() - t0
    metrics, facts = end_to_end(wl, results)  # before the checks, which evaluate p_s too
    attempted, failed, problems = failures(wl.name, results, wl.inputs.config)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "events": event_records(results), **facts}


def run_traced(wl: Workload) -> dict:
    """An untraced pass over round 0, then a traced pass over the
    deterministic rounds; the overhead compares the two over round 0."""
    plain = [wl.run_round(0)]
    tracers = wl.new_tracers()
    traced = [wl.run_round(r, tracers) for r in range(wl.spec.min_rounds)]
    metrics = traced_pass_metrics(wl, traced, tracers)
    for n in EXACT_LEAF_COUNTS:
        ms = [e.seconds * 1e3 for e in events_of(plain) if e.event.n_leaves == n]
        metrics[f"trellis.event_ms_n{n}"] = statistics.median(ms) if wl.name == "exact" else 0.0
    inputs = wl.inputs
    metrics["harness.write_events_ms"] = inputs.write_s * 1e3
    metrics["harness.load_events_ms"] = inputs.load_s * 1e3
    metrics["harness.dataset_bytes"] = float(inputs.dataset_bytes)
    metrics["bench.trace_overhead"] = round_seconds(traced[0]) / round_seconds(plain[0]) - 1.0

    attempted, failed, problems = failures(wl.name, traced, inputs.config)
    if counted_per_op(plain) != counted_per_op(traced[:1]):
        failed += 1
        problems.append("traced pass counted different p_s evaluations than the untraced pass")
    if checks.fingerprint(events_of(plain)) != checks.fingerprint(events_of(traced[:1])):
        failed += 1
        problems.append("traced trees differ from untraced ones")
    span_path = wl.out_dir / f"spans_{wl.name}_{wl.seed}.jsonl"
    with open(span_path, "w") as f:
        for phase, tracer in zip(wl.phases(), tracers):
            tracer.write(f, phase)
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems,
            "fingerprint": checks.fingerprint(events_of(traced)), "spans": str(span_path),
            "events": event_records(traced)}


def event_records(round_results) -> list:
    """[event id, leaf count, scaled ms, wall ms, counted evaluations] per event."""
    return [[e.event.event_id, e.event.n_leaves, e.seconds * 1e3, e.wall * 1e3, e.counted]
            for e in events_of(round_results)]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(SPECS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--result", type=Path, required=True)
    args = p.parse_args(argv)
    args.result.parent.mkdir(parents=True, exist_ok=True)

    with reference.METER:
        wl = Workload(args.workload, args.seed, args.result.parent, 1 if args.trace else SETUP_REPEATS)
        out = run_traced(wl) if args.trace else run_untraced(wl, args.seconds)
    units = PER_LAYER if args.trace else END_TO_END
    out["metrics"] = {k: {"value": out["metrics"][k], "unit": units[k]} for k in units}
    out.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_us": reference.REFERENCE_S * 1e6,
        "python": platform.python_version(),
        "numpy": np.__version__,
    })
    args.result.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
