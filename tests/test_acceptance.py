"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them
live).  The expensive shared artifacts (datasets, trained policies, the
planner sweep) are module-scoped fixtures, so the whole file runs in
20-30 s on a 2-vCPU machine.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

import jetclust as jc
from jetclust.env import action_table, reset, step
from jetclust.features import extract_pair_features, feature_dim
from jetclust.policy import PolicyWeights, init_weights
from jetclust.rng import make_rng

from conftest import SMALL_CONFIG, make_event

EVAL_SEED = 100
N_EVAL = 200
MCTS_CFG = jc.MctsConfig(c=1.0, n_mcts=20, beam_init_b=5)


def _ok(num, text):
    print(f"ACCEPTANCE {num} PASS - {text}")


@pytest.fixture(scope="module")
def desk_config():
    return jc.DESK_CONFIG


@pytest.fixture(scope="module")
def eval_events(desk_config):
    config = jc.ShowerConfig(lam=desk_config.lam, t_cut=desk_config.t_cut,
                             root=desk_config.root, rng_seed=EVAL_SEED)
    return jc.generate_events(config, N_EVAL)


@pytest.fixture(scope="module")
def train_events(desk_config):
    return jc.generate_events(desk_config, 200)


@pytest.fixture(scope="module")
def bc_policies(train_events, desk_config):
    """Two BC models trained with different seeds (desk-scale training)."""
    policies = []
    for seed in (0, 1):
        weights, _ = jc.train_bc(train_events, desk_config, steps=12_000, lr=0.05,
                                 rng=make_rng(seed, 7))
        policies.append(jc.NeuralPolicy(weights, desk_config))
    return policies


@pytest.fixture(scope="module")
def sweep(eval_events, desk_config, bc_policies):
    """Every planner over the full evaluation set: planner -> [(tree, ll, cost)],
    cost being the call's counted p_s evaluations."""
    out = {"random": [], "greedy": [], "beam5": [], "mcts": [], "bc0": [], "bc1": []}
    policy = jc.fixed_policy("random")

    def run(name, call):
        before = jc.PS_EVALUATIONS.count
        tree, ll = call()[:2]
        out[name].append((tree, ll, jc.PS_EVALUATIONS.count - before))

    for event in eval_events:
        run("random", lambda: jc.cluster_random(event.leaves, desk_config, make_rng(1, event.event_id)))
        run("greedy", lambda: jc.cluster_greedy(event.leaves, desk_config))
        run("beam5", lambda: jc.cluster_beam(event.leaves, 5, desk_config))
        run("mcts", lambda: jc.cluster_mcts(event.leaves, policy, MCTS_CFG, desk_config,
                                            make_rng(2, event.event_id)))
        for k, bc in enumerate(bc_policies):
            run(f"bc{k}", lambda: jc.cluster_policy(event.leaves, bc, desk_config))
    return out


def test_01_reward_likelihood_identity(sweep, desk_config):
    for name, results in sweep.items():
        for tree, ll, _ in results:
            recomputed = jc.tree_log_likelihood(tree, desk_config)
            assert abs(recomputed - ll) <= 1e-9, name
    _ok(1, "episode reward equals tree log-likelihood (every planner, 200 events, <=1e-9)")


def test_02_conservation(desk_config):
    # root momentum vs summed leaves over 1000 simulated trees
    for k in range(1000):
        config = desk_config if k % 2 else SMALL_CONFIG
        tree = jc.sample_shower(config, make_rng(11, k))
        total = tree.nodes[tree.leaf_indices[0]].momentum
        for idx in tree.leaf_indices[1:]:
            total = total + tree.nodes[idx].momentum
        root = tree.nodes[tree.root_index].momentum
        for got, want in zip(total.as_tuple(), root.as_tuple()):
            assert abs(got - want) <= 1e-6 * max(abs(want), 1.0)
    # per-step conservation in the MDP
    rng = make_rng(13)
    for k in range(20):
        tree = jc.sample_shower(SMALL_CONFIG, make_rng(17, k))
        state = reset(tree.leaf_momenta())
        reference = [math.fsum(getattr(p, c) for p in state.particles)
                     for c in ("E", "px", "py", "pz")]
        while not jc.is_terminal(state):
            acts = action_table(state.n)
            state = step(state, acts[int(rng.integers(len(acts)))], SMALL_CONFIG)
            current = [math.fsum(getattr(p, c) for p in state.particles)
                       for c in ("E", "px", "py", "pz")]
            assert all(abs(a - b) <= 1e-12 for a, b in zip(current, reference))
    _ok(2, "momentum conservation (1000 trees <=1e-6 rel; MDP steps <=1e-12)")


def test_03_oracle_equivalence(oracle_events):
    config = SMALL_CONFIG
    policy = jc.fixed_policy("random")
    cfg = jc.MctsConfig(c=1.0, n_mcts=10, beam_init_b=3)
    assert len(oracle_events) == 50
    for event in oracle_events:
        assert 3 <= event.n_leaves <= 7
        mle_ll, _ = jc.exact_mle(event.leaves, config)
        enum_ll, _ = jc.enumerate_all_trees(event.leaves, config)
        assert abs(mle_ll - enum_ll) <= 1e-9
        lls = [
            jc.cluster_random(event.leaves, config, make_rng(19, event.event_id))[1],
            jc.cluster_greedy(event.leaves, config)[1],
            jc.cluster_beam(event.leaves, 5, config)[1],
            jc.cluster_mcts(event.leaves, policy, cfg, config, make_rng(23, event.event_id))[1],
        ]
        assert all(ll <= mle_ll + 1e-9 for ll in lls)
    _ok(3, "exact MLE equals enumeration and dominates all planners (50 events, 3-7 leaves)")


def test_04_beam_degeneracies(small_events):
    config = SMALL_CONFIG
    assert len(small_events) == 100
    for event in small_events:
        greedy_tree, greedy_ll = jc.cluster_greedy(event.leaves, config)
        beam_tree, beam_ll = jc.cluster_beam(event.leaves, 1, config)
        assert greedy_ll == beam_ll
        assert [n.children for n in greedy_tree.nodes] == [n.children for n in beam_tree.nodes]
    checked = 0
    for event in small_events:
        if event.n_leaves > 6:
            continue
        mle_ll, _ = jc.exact_mle(event.leaves, config)
        _, saturated_ll = jc.cluster_beam(event.leaves, 1000, config)
        assert abs(saturated_ll - mle_ll) <= 1e-9
        checked += 1
    assert checked >= 30
    _ok(4, f"beam(1)=greedy on 100 events; beam(1000) exact on {checked} events with n<=6")


def test_05_mcts_dominates_its_seed(eval_events, sweep, desk_config):
    # b=5 from the sweep, all 200 events
    for (_, mcts_ll, _), (_, beam_ll, _) in zip(sweep["mcts"], sweep["beam5"]):
        assert mcts_ll >= beam_ll - 1e-9
    # b=3 on the first 100 events
    policy = jc.fixed_policy("random")
    cfg = jc.MctsConfig(c=1.0, n_mcts=10, beam_init_b=3)
    for event in eval_events[:100]:
        _, beam_ll = jc.cluster_beam(event.leaves, 3, desk_config)
        _, mcts_ll, _ = jc.cluster_mcts(event.leaves, policy, cfg, desk_config,
                                        make_rng(29, event.event_id))
        assert mcts_ll >= beam_ll - 1e-9
    _ok(5, "MCTS episode LL >= beam seed LL per event (b=3 and b=5)")


def test_06_qualitative_ordering(sweep):
    means = {name: float(np.mean([ll for _, ll, _ in results]))
             for name, results in sweep.items()}
    bc_mean = 0.5 * (means["bc0"] + means["bc1"])
    assert means["random"] < bc_mean, means
    assert bc_mean < means["greedy"], means
    assert means["greedy"] <= means["beam5"] + 1e-9, means
    assert means["beam5"] <= means["mcts"] + 1e-9, means
    assert means["greedy"] - means["random"] >= 10.0, means
    _ok(6, "mean LL ordering random < BC < greedy <= beam(5) <= MCTS, gap "
           f"{means['greedy'] - means['random']:.1f} >= 10")


def test_07_gradient_check():
    config = SMALL_CONFIG
    rng = make_rng(31)
    worst = 0.0
    for trial in range(10):
        tree = jc.sample_shower(config, make_rng(37, trial + 100))
        state = reset(tree.leaf_momenta())
        if state.n < 3:
            state = reset(list(state.particles) + [jc.FourMomentum(1.5, 0.2, 0.1, 0.4)])
        w = init_weights(feature_dim(), make_rng(41, trial))
        m = len(action_table(state.n))
        targets = tuple(int(v) for v in rng.choice(m, size=min(2, m), replace=False))
        x = extract_pair_features(state, config)
        _, grad = jc.policy_loss_and_grad(w, x, targets)
        flat_w, flat_g = w.theta, grad.theta
        eps = 1e-6
        for idx in rng.choice(flat_w.size, size=20, replace=False):
            up = flat_w.copy(); up[idx] += eps
            dn = flat_w.copy(); dn[idx] -= eps
            lu, _ = jc.policy_loss_and_grad(PolicyWeights(up, w.input_dim), x, targets)
            ld, _ = jc.policy_loss_and_grad(PolicyWeights(dn, w.input_dim), x, targets)
            fd = (lu - ld) / (2 * eps)
            worst = max(worst, abs(fd - flat_g[idx]) / max(abs(fd), abs(flat_g[idx]), 1e-8))
    assert worst < 1e-4
    _ok(7, f"analytic gradient matches finite differences (max rel err {worst:.2e})")


def test_08_cost_accounting(small_events):
    config = SMALL_CONFIG
    for event in small_events[:20]:
        jc.PS_EVALUATIONS.reset()
        jc.cluster_greedy(event.leaves, config)
        n = event.n_leaves
        assert jc.PS_EVALUATIONS.count == sum(k * (k - 1) // 2 for k in range(2, n + 1))
    # cover n = 2 and 3 explicitly ((3^n+1)/2 - 2^n gives 1 and 6), plus
    # whatever small sizes the dataset contains
    sized = {n: make_event(config, seed=47, n_leaves=n).leaf_momenta() for n in (2, 3)}
    for event in small_events:
        if event.n_leaves <= 6 and event.n_leaves not in sized:
            sized[event.n_leaves] = list(event.leaves)
    assert len(sized) >= 4
    for n, leaves in sized.items():
        jc.PS_EVALUATIONS.reset()
        jc.exact_mle(leaves, config)
        assert jc.PS_EVALUATIONS.count == (3**n + 1) // 2 - 2**n
    _ok(8, "p_s evaluation counts match closed forms (greedy and trellis)")


def test_09_density_sanity():
    rng = make_rng(43)
    for _ in range(10):
        lam = float(rng.uniform(0.2, 5.0))
        t_max = float(rng.uniform(0.1, 50.0))
        total, _ = integrate.quad(
            lambda t: math.exp(jc.truncated_exp_log_density(t, t_max, lam)), 0.0, t_max)
        assert abs(total - 1.0) <= 1e-8
    lam, t_max = 1.0, 1.0
    samples = [jc.sample_truncated_exp(t_max, lam, rng) for _ in range(100_000)]

    def cdf(t):
        t = np.clip(t, 0.0, t_max)
        return (1.0 - np.exp(-lam * t / t_max)) / (1.0 - np.exp(-lam))

    ks = stats.kstest(samples, cdf).statistic
    assert ks < 0.01
    _ok(9, f"density normalization <=1e-8 and sampler KS statistic {ks:.4f} < 0.01")


def test_10_determinism(tmp_path, desk_config):
    config = SMALL_CONFIG
    # dataset files
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    jc.generate(config, 50, p1)
    jc.generate(config, 50, p2)
    assert p1.read_bytes() == p2.read_bytes()
    events = jc.load_events(p1)
    # planners
    for planner in (
        lambda e, r: jc.cluster_greedy(e.leaves, config),
        lambda e, r: jc.cluster_beam(e.leaves, 3, config),
        lambda e, r: jc.cluster_random(e.leaves, config, make_rng(5, r)),
        lambda e, r: jc.cluster_mcts(
            e.leaves, jc.fixed_policy("proportional-to-ps", config),
            jc.MctsConfig(n_mcts=5, beam_init_b=2), config, make_rng(7, r))[:2],
    ):
        for event in events[:10]:
            t1, ll1 = planner(event, event.event_id)
            t2, ll2 = planner(event, event.event_id)
            assert ll1 == ll2
            assert [n.children for n in t1.nodes] == [n.children for n in t2.nodes]
    # training
    w1, l1 = jc.train_bc(events[:20], config, steps=800, lr=0.05, rng=make_rng(9, 0))
    w2, l2 = jc.train_bc(events[:20], config, steps=800, lr=0.05, rng=make_rng(9, 0))
    assert l1 == l2
    assert all(np.array_equal(a, b) for a, b in zip(w1.arrays(), w2.arrays()))
    cfg = jc.MctsConfig(n_mcts=3, beam_init_b=2)
    m1, lm1 = jc.train_mcts_policy(events[:8], cfg, config, steps=40, lr=0.03, rng=make_rng(9, 1))
    m2, lm2 = jc.train_mcts_policy(events[:8], cfg, config, steps=40, lr=0.03, rng=make_rng(9, 1))
    assert lm1 == lm2
    assert all(np.array_equal(a, b) for a, b in zip(m1.arrays(), m2.arrays()))
    # weight files
    f1, f2 = tmp_path / "w1.bin", tmp_path / "w2.bin"
    jc.save_weights(f1, w1, config_hash="x")
    jc.save_weights(f2, w2, config_hash="x")
    assert f1.read_bytes() == f2.read_bytes()
    # evaluation results
    r1 = jc.evaluate(events, {"algo": "mcts", "b": 2, "n_mcts": 4}, n_eval=10, seeds=[0, 1])
    r2 = jc.evaluate(events, {"algo": "mcts", "b": 2, "n_mcts": 4}, n_eval=10, seeds=[0, 1])
    strip = lambda r: {k: v for k, v in r.__dict__.items() if k != "per_event"} | {
        "per_event": [{k: v for k, v in e.items() if k != "ms"} for e in r.per_event]}
    assert strip(r1) == strip(r2)
    _ok(10, "pipeline stages bit-identical under fixed seeds across two runs")


# ---------------------------------------------------------------------------
# The behaviour fingerprint: the LL bits and counted cost of every event
# under the sweep's random, greedy, beam(5) and uniform-prior MCTS agents.
# ---------------------------------------------------------------------------

FINGERPRINT = Path(__file__).with_name("fingerprint.txt")
FINGERPRINT_PLANNERS = ("random", "greedy", "beam5", "mcts")
FINGERPRINT_HEADER = """\
# Behaviour fingerprint of the acceptance sweep (tests/test_acceptance.py):
# one line per event and planner, "<event id> <planner> <ll.hex()> <counted
# p_s evaluations>", on the 200 desk events of seed 100.  A change that is
# declared to move LLs or counts regenerates it with
#   JETCLUST_WRITE_FINGERPRINT=1 python -m pytest -q tests/test_acceptance.py -k fingerprint
# and its diff is the declaration.  The BC agents are left out: their
# weights pass through BLAS matmuls, whose bits may differ between CPUs
# and BLAS builds; these four agents use Python floats, math and
# elementwise numpy only.
"""


def _fingerprint_rows(eval_events, sweep):
    return [f"{event.event_id} {name} {sweep[name][k][1].hex()} {sweep[name][k][2]}"
            for k, event in enumerate(eval_events) for name in FINGERPRINT_PLANNERS]


def _fingerprint_lines(text):
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def _first_difference(expected, rows):
    """None if the rows are the expected lines, else a message naming the
    first event and planner that differ."""
    for want, got in zip(expected, rows):
        if want != got:
            event_id, planner = got.split()[:2]
            return f"event {event_id}, planner {planner}: expected {want!r}, got {got!r}"
    if len(expected) != len(rows):
        return f"{len(expected)} entries expected, {len(rows)} computed"
    return None


def test_11_behaviour_fingerprint(eval_events, sweep):
    rows = _fingerprint_rows(eval_events, sweep)
    if os.environ.get("JETCLUST_WRITE_FINGERPRINT"):
        FINGERPRINT.write_text(FINGERPRINT_HEADER + "".join(row + "\n" for row in rows))
    difference = _first_difference(_fingerprint_lines(FINGERPRINT.read_text()), rows)
    assert difference is None, difference
    _ok(11, f"LL bits and counted cost match {FINGERPRINT.name} ({len(rows)} entries)")


def test_12_fingerprint_catches_one_ulp_and_one_evaluation():
    lines = _fingerprint_lines(FINGERPRINT.read_text())
    assert len(lines) == N_EVAL * len(FINGERPRINT_PLANNERS)
    k = len(lines) // 2 + 1
    event_id, planner, ll_hex, cost = lines[k].split()
    ll = float.fromhex(ll_hex)
    for mutated in (f"{event_id} {planner} {math.nextafter(ll, math.inf).hex()} {cost}",
                    f"{event_id} {planner} {ll_hex} {int(cost) + 1}"):
        copy = lines[:k] + [mutated] + lines[k + 1:]
        assert _first_difference(lines, copy).startswith(f"event {event_id}, planner {planner}:")
        assert _first_difference(copy, lines) is not None
    assert _first_difference(lines, lines) is None
    assert _first_difference(lines, lines[:-1]) is not None
