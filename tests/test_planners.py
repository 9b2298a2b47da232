import dataclasses
import math
import pickle
import re
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import jetclust as jc
from jetclust import env as env_module
from jetclust import planners as planners_module
from jetclust.env import ClusterState, action_table, apply_action, leaf_sets, merged, reset
from jetclust.features import feature_dim
from jetclust.planners import (
    SearchNode,
    _beam_from_state,
    _rewards,
    _Search,
    _softmax,
)
from jetclust.policy import init_weights
from jetclust.rng import make_rng
from jetclust.shower import FourMomentum

from conftest import as_frozensets, make_event


def _event(small_config, seed, n):
    return make_event(small_config, seed=seed, n_leaves=n).leaf_momenta()


def _tree_shape(tree):
    return [node.children for node in tree.nodes]


# ---------------------------------------------------------------------------
# fixed policies
# ---------------------------------------------------------------------------

def test_fixed_policy_random_is_uniform(small_config):
    state = reset(_event(small_config, 3, 3))
    priors = jc.fixed_policy("random").priors(state)
    assert np.allclose(priors, [1 / 3, 1 / 3, 1 / 3])


def test_fixed_policy_proportional_to_ps(small_config):
    state = reset(_event(small_config, 3, 5))
    policy = jc.fixed_policy("proportional-to-ps", small_config)
    priors = policy.priors(state)
    assert abs(priors.sum() - 1.0) <= 1e-6
    logps = [
        jc.splitting_log_likelihood(
            jc.Splitting(state.particles[a.i], state.particles[a.j]),
            small_config)
        for a in action_table(state.n)
    ]
    order = np.argsort(logps)
    assert all(priors[order[k]] <= priors[order[k + 1]] for k in range(len(order) - 1))


def test_fixed_policy_unknown_kind():
    with pytest.raises(ValueError):
        jc.fixed_policy("magic")


# ---------------------------------------------------------------------------
# random / greedy
# ---------------------------------------------------------------------------

def test_random_two_leaves_is_forced(small_config):
    ev = _event(small_config, 5, 2)
    t_rand, _ = jc.cluster_random(ev, small_config, make_rng(0))
    t_greedy, _ = jc.cluster_greedy(ev, small_config)
    assert _tree_shape(t_rand) == _tree_shape(t_greedy)


def test_random_fixed_seed_is_bit_identical(small_config):
    ev = _event(small_config, 5, 6)
    t1, ll1 = jc.cluster_random(ev, small_config, make_rng(31, 4))
    t2, ll2 = jc.cluster_random(ev, small_config, make_rng(31, 4))
    assert ll1 == ll2
    assert _tree_shape(t1) == _tree_shape(t2)


def test_greedy_first_step_is_argmax_over_three_trees(small_config):
    ev = _event(small_config, 7, 3)
    _, greedy_ll = jc.cluster_greedy(ev, small_config)
    state = reset(ev)
    # brute force over the three possible first actions, then forced merge
    outcomes = []
    for a in action_table(state.n):
        nxt = jc.step(state, a, small_config)
        done = jc.step(nxt, jc.Action(0, 1), small_config)
        outcomes.append((a, done.cumulative_reward))
    first_rewards = {
        a: jc.splitting_log_likelihood(
            jc.Splitting(state.particles[a.i], state.particles[a.j]),
            small_config)
        for a in action_table(state.n)
    }
    best_first = max(first_rewards, key=lambda a: first_rewards[a])
    expected = dict((a, ll) for a, ll in outcomes)[best_first]
    assert greedy_ll == pytest.approx(expected, abs=1e-12)


def test_greedy_reported_ll_matches_tree(small_config, oracle_events):
    for event in oracle_events[:10]:
        tree, ll = jc.cluster_greedy(event.leaves, small_config)
        assert abs(jc.tree_log_likelihood(tree, small_config) - ll) <= 1e-9


# ---------------------------------------------------------------------------
# beam search
# ---------------------------------------------------------------------------

def test_beam_width_one_equals_greedy(small_config, small_events):
    for event in small_events:
        tg, llg = jc.cluster_greedy(event.leaves, small_config)
        tb, llb = jc.cluster_beam(event.leaves, 1, small_config)
        assert llg == llb
        assert _tree_shape(tg) == _tree_shape(tb)


def test_beam_saturated_equals_enumeration(small_config):
    ev = _event(small_config, 11, 4)
    _, beam_ll = jc.cluster_beam(ev, 1000, small_config)
    enum_ll, count = jc.enumerate_all_trees(ev, small_config)
    assert count == 15
    assert abs(beam_ll - enum_ll) <= 1e-9


def test_beam_is_monotone_in_width_on_average(small_config, oracle_events):
    lls = {b: [] for b in (1, 5)}
    for event in oracle_events[:25]:
        for b in lls:
            lls[b].append(jc.cluster_beam(event.leaves, b, small_config)[1])
    assert np.mean(lls[5]) >= np.mean(lls[1])


def test_beam_rejects_zero_width(small_config):
    with pytest.raises(ValueError):
        jc.cluster_beam(_event(small_config, 3, 3), 0, small_config)


def test_beam_dedup_keeps_best_representative(small_config):
    # all partitions of a 4-leaf event fit in a wide beam; the final beam
    # must hold distinct partitions only
    ev = _event(small_config, 13, 4)
    items = _beam_from_state(reset(ev), 1000, small_config)
    keys = [tuple(sorted(tuple(sorted(s)) for s in as_frozensets(leaf_sets(it.state)))) for it in items]
    assert len(set(keys)) == len(keys)


# The eager beam the lazy one replaced, kept as the oracle: it builds every
# candidate state and collapses partitions as it goes.  Its items hold
# frozensets of leaf indices beside the state, and it breaks ties by the
# action path.  That is the order of the histories of particle ids that
# states once held, which the oracle checks at every tie: the items of a
# level share the start state's history, at the first entry where two id
# histories differ the state is the same, and that state's ids increase
# with position, so (ids[i], ids[j]) orders as (i, j).


@dataclass
class _EagerItem:
    state: object
    leafsets: tuple
    path: tuple

    @property
    def actions(self):
        return [a for a, _ in self.path]

    @property
    def id_history(self):
        """The merges from the start state as particle-id pairs: the start
        state's particles are ids 0..n-1 in position order, and merge k
        creates id n + k."""
        n = self.state.n + len(self.path)
        ids, history = list(range(n)), []
        for k, (a, _) in enumerate(self.path):
            history.append((ids[a.i], ids[a.j]))
            ids = [x for pos, x in enumerate(ids) if pos not in (a.i, a.j)] + [n + k]
        return history


def _pair_rewards(state, config):
    """Every legal action with its reward, in legal-action order."""
    return list(zip(action_table(state.n), _rewards(state, config)))


def _eager_partition_key(leafsets):
    return tuple(sorted(tuple(sorted(s)) for s in leafsets))


def _eager_beam_from_state(state, b, config):
    if b < 1:
        raise ValueError(f"beam width must be >= 1, got {b}")
    items = [_EagerItem(state=state, leafsets=as_frozensets(leaf_sets(state)), path=())]
    while items[0].state.n > 1:
        survivors = {}
        for item in items:
            for action, reward in _pair_rewards(item.state, config):
                nxt = apply_action(item.state, action, reward)
                i, j = action.i, action.j
                nls = tuple(
                    s for k, s in enumerate(item.leafsets) if k != i and k != j
                ) + (item.leafsets[i] | item.leafsets[j],)
                key = _eager_partition_key(nls)
                cand = _EagerItem(state=nxt, leafsets=nls, path=item.path + ((action, nxt),))
                held = survivors.get(key)
                if held is None or _eager_beats(cand, held):
                    survivors[key] = cand
        items = sorted(survivors.values(), key=lambda it: (-it.state.cumulative_reward, it.actions))
        assert items == sorted(items, key=lambda it: (-it.state.cumulative_reward, it.id_history))
        items = items[:b]
    return items


def _eager_beats(a, b):
    if a.state.cumulative_reward != b.state.cumulative_reward:
        return a.state.cumulative_reward > b.state.cumulative_reward
    assert (a.actions < b.actions) == (a.id_history < b.id_history)
    return a.actions < b.actions


def _assert_same_beam(lazy, eager):
    assert len(lazy) == len(eager)
    for got, want in zip(lazy, eager):
        assert got.state.history == want.state.history
        assert got.state.cumulative_reward.hex() == want.state.cumulative_reward.hex()
        assert got.state.particles == want.state.particles
        assert as_frozensets(leaf_sets(got.state)) == want.leafsets
        assert [a for a, _ in got.path] == [a for a, _ in want.path]
        assert [s.history for _, s in got.path] == [s.history for _, s in want.path]
        assert [s.cumulative_reward.hex() for _, s in got.path] == \
            [s.cumulative_reward.hex() for _, s in want.path]


@pytest.mark.parametrize("n", range(4, 11))
def test_lazy_beam_matches_eager_oracle(small_config, medium_events, n):
    config, events = (small_config, None) if n <= 8 else medium_events
    leaves = (_event(small_config, 11, n) if events is None
              else next(e.leaves for e in events if e.n_leaves == n))
    for b in (1, 2, 3, 5, 1000):
        _assert_same_beam(_beam_from_state(reset(leaves), b, config),
                          _eager_beam_from_state(reset(leaves), b, config))


def test_lazy_beam_matches_eager_oracle_mid_episode(small_config):
    state = reset(_event(small_config, 13, 8))
    for a in (jc.Action(1, 4), jc.Action(0, 2), jc.Action(2, 5)):
        state = jc.step(state, a, small_config)
    for b in (1, 2, 3, 5, 1000):
        _assert_same_beam(_beam_from_state(state, b, small_config),
                          _eager_beam_from_state(state, b, small_config))


def test_lazy_beam_matches_eager_oracle_on_tied_rewards(small_config):
    # Six equal-mass particles along the coordinate axes: every merge
    # reward comes in bit-equal ties, so only the tie order ranks them.
    leaves = [jc.FourMomentum(1.5, *(s if k == axis else 0.0 for k in range(3)))
              for axis in range(3) for s in (1.0, -1.0)]
    for b in (1, 2, 3, 5, 1000):
        _assert_same_beam(_beam_from_state(reset(leaves), b, small_config),
                          _eager_beam_from_state(reset(leaves), b, small_config))


def test_lazy_beam_matches_eager_oracle_on_repeated_identical_leaves(medium_events):
    # Every leaf appears twice, so every merge reward comes with bit-equal
    # twins whose histories differ: the ranking falls through to the parent's
    # history rank and the action index, while the dedup keeps both twins
    # because their leaf-set partitions differ.
    config, events = medium_events
    base = next(e.leaves for e in events if e.n_leaves == 5)
    leaves = [p for p in base for _ in range(2)]
    rewards = _rewards(reset(leaves), config)
    assert len(set(rewards)) < len(rewards)
    state = jc.step(reset(leaves), jc.Action(0, 3), config)
    for start in (reset(leaves), state):
        for b in (1, 5):
            _assert_same_beam(_beam_from_state(start, b, config),
                              _eager_beam_from_state(start, b, config))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), b=st.sampled_from([1, 2, 3, 5, 1000]),
       data=st.data())
def test_lazy_beam_matches_eager_oracle_on_random_events(small_config, seed, b, data):
    leaves = jc.sample_shower(small_config, make_rng(seed)).leaf_momenta()
    assume(len(leaves) <= 9)
    state = reset(leaves)
    for _ in range(data.draw(st.integers(0, len(leaves) - 2), label="prefix")):
        actions = action_table(state.n)
        a = actions[data.draw(st.integers(0, len(actions) - 1), label="action")]
        state = jc.step(state, a, small_config)
    _assert_same_beam(_beam_from_state(state, b, small_config),
                      _eager_beam_from_state(state, b, small_config))


# ---------------------------------------------------------------------------
# golden log-likelihoods
# ---------------------------------------------------------------------------

MEDIUM_CONFIG = jc.ShowerConfig(
    lam=1.5, t_cut=1.0, root=jc.FourMomentum(12.0, 0.0, 0.0, 4.0), rng_seed=2)

# (config, event seed, leaves) -> (LL, counted p_s evaluations) of greedy,
# beam(5) and MCTS(n_mcts=20, b=5, p_s prior, rng (seed, leaves)), pinned
# bit for bit.  On the (4, 10) event MCTS ends one ulp above beam(5).
GOLDEN = [
    ("small", 13, 8, [("-0x1.7cb4f86e6230ep+3", 84), ("-0x1.71310eabf2b47p+3", 308),
                      ("-0x1.710a3a75c2eb0p+3", 1356)]),
    ("medium", 1, 10, [("-0x1.5c6473a3802c6p+4", 165), ("-0x1.59234e5c747cbp+4", 645),
                       ("-0x1.56630f8a80b08p+4", 3278)]),
    ("medium", 2, 11, [("-0x1.263020c4e5d80p+5", 220), ("-0x1.1eb9018f259c2p+5", 880),
                       ("-0x1.19b96dae4208ep+5", 4601)]),
    ("medium", 3, 9, [("-0x1.1eb8c63c4d97ep+5", 120), ("-0x1.143719ca90c44p+5", 456),
                      ("-0x1.0fabe1c5d4508p+5", 2396)]),
    ("medium", 4, 10, [("-0x1.0bf7c8712aec9p+5", 165), ("-0x1.089f1d63145e5p+5", 645),
                       ("-0x1.089f1d63145e4p+5", 3560)]),
]


@pytest.mark.parametrize("name,seed,n,expected", GOLDEN)
def test_golden_log_likelihoods_and_costs(small_config, name, seed, n, expected):
    config = small_config if name == "small" else MEDIUM_CONFIG
    ev = make_event(config, seed=seed, n_leaves=n).leaf_momenta()
    runs = [
        lambda: jc.cluster_greedy(ev, config)[1],
        lambda: jc.cluster_beam(ev, 5, config)[1],
        lambda: jc.cluster_mcts(ev, jc.fixed_policy("proportional-to-ps", config),
                                jc.MctsConfig(n_mcts=20, beam_init_b=5), config,
                                make_rng(seed, n))[1],
    ]
    got = []
    for run in runs:
        start = jc.PS_EVALUATIONS.count
        ll = run()
        got.append((ll.hex(), jc.PS_EVALUATIONS.count - start))
    assert got == expected


# ---------------------------------------------------------------------------
# PUCT arithmetic
# ---------------------------------------------------------------------------

def _set_visits(node, n_sa, w_sa):
    """Visit statistics as a run of _Search.backup would leave them, Q included."""
    node.n_sa[:] = n_sa
    node.w_sa[:] = w_sa
    node.q[:] = np.where(node.n_sa > 0, node.w_sa / np.maximum(node.n_sa, 1), 0.5)


def _old_puct_scores(node, c):
    q = np.where(node.n_sa > 0, node.w_sa / np.maximum(node.n_sa, 1), 0.5)
    return q + c * node.priors * math.sqrt(max(node.n_visits, 1)) / (1.0 + node.n_sa)


def test_puct_score_direct_example(small_config):
    state = reset(_event(small_config, 3, 3))
    node = SearchNode(state, jc.fixed_policy("random"))
    node.priors = np.array([0.4, 0.2, 0.4])
    node.n_visits = 9
    _set_visits(node, [4, 2, 3], [2.0, 1.0, 1.5])
    # Q = 1/2, U = 1 * 0.2 * 3 / 3
    assert node.puct_scores(1.0)[1] == pytest.approx(0.7, abs=1e-12)


def test_puct_score_matches_formula_on_random_tuples(small_config):
    state = reset(_event(small_config, 3, 3))
    node = SearchNode(state, jc.fixed_policy("random"))
    rng = make_rng(41)
    for _ in range(10_000):
        q = rng.uniform(0.0, 1.0, 3)
        n_sa = rng.integers(0, 50, 3)
        node.priors = rng.dirichlet(np.ones(3))
        node.n_visits = int(n_sa.sum())
        _set_visits(node, n_sa, q * n_sa)
        c = float(rng.uniform(0.01, 10.0))
        k = int(rng.integers(3))
        expected_q = q[k] if n_sa[k] > 0 else 0.5
        expected = expected_q + c * node.priors[k] * math.sqrt(max(node.n_visits, 1)) / (1 + n_sa[k])
        assert node.puct_scores(c)[k] == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_puct_exploration_vanishes_with_visits(small_config):
    state = reset(_event(small_config, 3, 3))
    node = SearchNode(state, jc.fixed_policy("random"))
    node.n_visits = 10**9
    _set_visits(node, [10**9 - 2, 1, 1], [0.25 * (10**9 - 2), 0.5, 0.5])
    assert node.puct_scores(1.0)[0] == pytest.approx(0.25, abs=1e-3)


def test_puct_c_zero_is_argmax_q(small_config):
    state = reset(_event(small_config, 3, 3))
    node = SearchNode(state, jc.fixed_policy("random"))
    node.n_visits = 6
    _set_visits(node, [2, 2, 2], [0.2, 1.8, 1.0])
    scores = node.puct_scores(1e-12)
    assert int(np.argmax(scores)) == 1


@pytest.mark.parametrize("prior", ["random", "proportional-to-ps"])
def test_puct_scores_match_the_recomputed_q_at_every_node(small_config, prior):
    # _Search.backup keeps Q up to date; after each of 20 simulations every node's
    # scores must equal the formula that recomputes Q from n_sa and w_sa.
    config = jc.ShowerConfig(lam=1.5, t_cut=1.0, root=jc.FourMomentum(12.0, 0.0, 0.0, 4.0))
    policy = jc.fixed_policy(prior, config)
    cfg = _mcts_cfg(n_mcts=20, beam_init_b=2)
    root = SearchNode(reset(make_event(config, seed=5, n_leaves=9).leaf_momenta()), policy)
    search = _Search(policy, cfg, config, make_rng(3))
    search.seed(root)
    for _ in range(cfg.n_mcts):
        search.rollout(root)
        stack, visited = [root], 0
        while stack:
            node = stack.pop()
            visited += 1
            for c in (1.0, 0.7, 2.5, 0.1):
                assert node.puct_scores(c).tobytes() == _old_puct_scores(node, c).tobytes()
                assert node.puct_scores(c).tobytes() == _oracle_puct_scores(node, c).tobytes()
            stack.extend(child for child in node.children if child is not None)
    assert visited > 20


def test_backup_weights_returns_by_their_place_in_the_range_seen(small_config):
    # 0.5 while the range is degenerate, then (ret - lo) / (hi - lo).
    node = SearchNode(reset(_event(small_config, 3, 3)), jc.fixed_policy("random"))
    search = _Search(jc.fixed_policy("random"), _mcts_cfg(), small_config, make_rng(0))
    weights = []
    for ret in (-5.0, -5.0, -1.0, -5.0, -3.0):
        before = node.w_sa[0]
        search.backup([(node, 0)], ret)
        weights.append(node.w_sa[0] - before)
    assert weights == [0.5, 0.5, 1.0, 0.0, 0.5]
    assert (search.lo, search.hi) == (-5.0, -1.0)
    assert node.n_sa[0] == 5 and node.n_visits == 5
    assert node.best_return[0] == -1.0


# ---------------------------------------------------------------------------
# MCTS
# ---------------------------------------------------------------------------

def _mcts_cfg(**kw):
    base = dict(c=1.0, n_mcts=10, beam_init_b=3)
    base.update(kw)
    return jc.MctsConfig(**base)


def test_mcts_two_leaf_root_returns_the_single_action(small_config):
    ev = _event(small_config, 3, 2)
    for cfg in (_mcts_cfg(), _mcts_cfg(beam_init_b=0, n_mcts=1), _mcts_cfg(final_rule="puct-visits")):
        _, _, decisions = jc.cluster_mcts(ev, jc.fixed_policy("random"), cfg, small_config, make_rng(0))
        assert [action_table(s.n)[k] for s, k in decisions] == [jc.Action(0, 1)]


def test_mcts_rejects_empty_budget(small_config):
    ev = _event(small_config, 3, 3)
    with pytest.raises(ValueError):
        jc.cluster_mcts(ev, jc.fixed_policy("random"),
                        _mcts_cfg(n_mcts=0, beam_init_b=0), small_config, make_rng(0))


def test_mcts_dominates_its_beam_seed(small_config, small_events):
    policy = jc.fixed_policy("random")
    for b in (3, 5):
        cfg = _mcts_cfg(beam_init_b=b, n_mcts=5)
        for event in small_events[:25]:
            _, beam_ll = jc.cluster_beam(event.leaves, b, small_config)
            _, mcts_ll, _ = jc.cluster_mcts(
                event.leaves, policy, cfg, small_config, make_rng(43, event.event_id))
            assert mcts_ll >= beam_ll - 1e-9


def test_mcts_below_exact_mle(small_config, oracle_events):
    policy = jc.fixed_policy("random")
    cfg = _mcts_cfg()
    for event in oracle_events[:15]:
        mle_ll, _ = jc.exact_mle(event.leaves, small_config)
        _, mcts_ll, _ = jc.cluster_mcts(
            event.leaves, policy, cfg, small_config, make_rng(47, event.event_id))
        assert mcts_ll <= mle_ll + 1e-9


def test_mcts_deterministic_under_fixed_seed(small_config):
    ev = _event(small_config, 17, 6)
    policy = jc.fixed_policy("proportional-to-ps", small_config)
    cfg = _mcts_cfg()
    t1, ll1, _ = jc.cluster_mcts(ev, policy, cfg, small_config, make_rng(53, 0))
    t2, ll2, _ = jc.cluster_mcts(ev, policy, cfg, small_config, make_rng(53, 0))
    assert ll1 == ll2
    assert _tree_shape(t1) == _tree_shape(t2)


def test_mcts_reported_ll_matches_tree(small_config, oracle_events):
    policy = jc.fixed_policy("random")
    cfg = _mcts_cfg()
    for event in oracle_events[:8]:
        tree, ll, _ = jc.cluster_mcts(
            event.leaves, policy, cfg, small_config, make_rng(59, event.event_id))
        assert abs(jc.tree_log_likelihood(tree, small_config) - ll) <= 1e-9


def test_mcts_ablation_flags_produce_valid_clusterings(small_config):
    ev = _event(small_config, 19, 5)
    policy = jc.fixed_policy("random")
    for cfg in (
        _mcts_cfg(final_rule="puct-visits"),
        _mcts_cfg(beam_init_b=0, n_mcts=10),
        _mcts_cfg(rollout_rule="policy-sample"),
    ):
        tree, ll, _ = jc.cluster_mcts(ev, policy, cfg, small_config, make_rng(61))
        assert tree.n_leaves == 5
        assert abs(jc.tree_log_likelihood(tree, small_config) - ll) <= 1e-9


def test_mcts_emits_training_examples(small_config):
    ev = _event(small_config, 23, 5)
    policy = jc.fixed_policy("random")

    _, _, decisions = jc.cluster_mcts(ev, policy, _mcts_cfg(), small_config, make_rng(67))
    assert len(decisions) == 4  # one decision per merge
    for state, k in decisions:
        assert 0 <= k < len(action_table(state.n))


def test_mcts_better_prior_at_least_greedy_on_average(small_config, oracle_events):
    # with beam seeding the planner cannot fall behind its own seed, so
    # its mean should clear greedy's comfortably at these budgets
    cfg = _mcts_cfg(beam_init_b=3, n_mcts=10)
    for prior in ("random", "proportional-to-ps"):
        policy = jc.fixed_policy(prior, small_config)
        mcts_mean = np.mean([
            jc.cluster_mcts(e.leaves, policy, cfg, small_config, make_rng(71, e.event_id))[1]
            for e in oracle_events[:20]])
        greedy_mean = np.mean([
            jc.cluster_greedy(e.leaves, small_config)[1] for e in oracle_events[:20]])
        assert mcts_mean >= greedy_mean - 1e-9


def test_planners_run_inside_one_memo_scope(small_config, monkeypatch):
    import jetclust.planners as pmod
    from jetclust import shower

    kernel = shower.splitting_log_likelihood
    seen = []

    def spy(s, config):
        seen.append(shower._PS_MEMO.get())
        return kernel(s, config)

    monkeypatch.setattr(pmod, "splitting_log_likelihood", spy)
    ev = _event(small_config, 29, 5)
    policy = jc.fixed_policy("proportional-to-ps", small_config)
    runs = [
        lambda: jc.cluster_greedy(ev, small_config),
        lambda: jc.cluster_beam(ev, 3, small_config),
        lambda: jc.cluster_mcts(ev, policy, _mcts_cfg(), small_config, make_rng(73)),
        lambda: jc.cluster_policy(ev, policy, small_config),
    ]
    for run in runs:
        seen.clear()
        run()
        assert seen and seen[0] is not None
        assert all(memo is seen[0] for memo in seen)
        assert shower._PS_MEMO.get() is None


def test_cluster_policy_rollout(small_config):
    ev = _event(small_config, 29, 5)
    tree, ll = jc.cluster_policy(ev, jc.fixed_policy("random"), small_config)
    assert tree.n_leaves == 5
    assert abs(jc.tree_log_likelihood(tree, small_config) - ll) <= 1e-9


# ---------------------------------------------------------------------------
# invariants as properties over random desk events
# ---------------------------------------------------------------------------

DESK = jc.DESK_CONFIG


def _desk_leaves(seed):
    """Leaves of the first desk event with 6-10 leaves in the stream of
    `seed`; about one desk event in eleven is that small."""
    for k in range(400):
        tree = jc.sample_shower(DESK, make_rng(seed, k))
        if 6 <= tree.n_leaves <= 10:
            return tree.leaf_momenta()
    raise RuntimeError(f"no desk event of 6-10 leaves for seed {seed}")


_desk_events = st.integers(0, 2**31 - 1).map(_desk_leaves)


def _counted(run):
    start = jc.PS_EVALUATIONS.count
    out = run()
    return out, jc.PS_EVALUATIONS.count - start


@settings(max_examples=25, deadline=None)
@given(leaves=_desk_events)
def test_beam_width_one_is_greedy_on_random_desk_events(leaves):
    (tg, llg), cost_g = _counted(lambda: jc.cluster_greedy(leaves, DESK))
    (tb, llb), cost_b = _counted(lambda: jc.cluster_beam(leaves, 1, DESK))
    assert _tree_shape(tb) == _tree_shape(tg)
    assert llb.hex() == llg.hex()
    assert cost_b == cost_g


@settings(max_examples=15, deadline=None)
@given(leaves=_desk_events, data=st.data())
def test_greedy_and_beam_ll_ignore_the_leaf_order(leaves, data):
    order = data.draw(st.permutations(range(len(leaves))), label="order")
    permuted = [leaves[i] for i in order]
    for run in (lambda ev: jc.cluster_greedy(ev, DESK), lambda ev: jc.cluster_beam(ev, 5, DESK)):
        assert abs(run(permuted)[1] - run(leaves)[1]) <= 1e-9


@settings(max_examples=15, deadline=None)
@given(leaves=_desk_events, b=st.sampled_from([1, 2, 3, 5]), seed=st.integers(0, 2**31 - 1))
def test_mcts_is_at_least_its_beam_seed_on_random_desk_events(leaves, b, seed):
    _, beam_ll = jc.cluster_beam(leaves, b, DESK)
    _, mcts_ll, _ = jc.cluster_mcts(leaves, jc.fixed_policy("proportional-to-ps", DESK),
                                    _mcts_cfg(n_mcts=3, beam_init_b=b), DESK, make_rng(seed))
    assert mcts_ll >= beam_ll - 1e-9


@settings(max_examples=10, deadline=None)
@given(leaves=_desk_events, seed=st.integers(0, 2**31 - 1))
def test_exact_mle_dominates_every_planner_on_random_desk_events(leaves, seed):
    mle_ll, _ = jc.exact_mle(leaves, DESK)
    planner_lls = [
        jc.cluster_greedy(leaves, DESK)[1],
        jc.cluster_beam(leaves, 5, DESK)[1],
        jc.cluster_mcts(leaves, jc.fixed_policy("proportional-to-ps", DESK),
                        _mcts_cfg(n_mcts=5, beam_init_b=3), DESK, make_rng(seed))[1],
    ]
    assert all(ll <= mle_ll + 1e-9 for ll in planner_lls)


def test_every_planner_names_a_lam_without_normaliser(small_config):
    # A ShowerConfig is validated where it enters the CLI; a library
    # caller that skips validate() still gets the same message, from the
    # first query inside a support, not a bare math domain error.
    tiny = jc.ShowerConfig(lam=1e-300, t_cut=1.0, root=small_config.root)
    truth = make_event(small_config, seed=5, n_leaves=5)
    leaves = truth.leaf_momenta()
    runs = {
        "greedy": lambda: jc.cluster_greedy(leaves, tiny),
        "beam": lambda: jc.cluster_beam(leaves, 3, tiny),
        "mcts": lambda: jc.cluster_mcts(leaves, jc.fixed_policy("proportional-to-ps", tiny),
                                        _mcts_cfg(n_mcts=3, beam_init_b=2), tiny, make_rng(3)),
        "exact_mle": lambda: jc.exact_mle(leaves, tiny),
        "tree_log_likelihood": lambda: jc.tree_log_likelihood(truth, tiny),
    }
    for name, run in runs.items():
        with pytest.raises(ValueError, match="lam 1e-300 is too small") as err:
            run()
        assert "does not exist" in str(err.value), name


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("component", ["E", "px", "py", "pz"])
def test_every_planner_rejects_a_non_finite_leaf(small_config, bad, component):
    # NaN passes the energy and mass checks, and inf made the kernel
    # raise a bare math domain error; both are named at the leaf now.
    F = jc.FourMomentum
    values = dict(E=2.0, px=0.0, py=0.0, pz=1.0)
    values[component] = bad
    leaves = [F(3.0, 0.5, 0.0, 1.0), F(**values), F(2.0, 0.0, 0.0, 1.0)]
    nn = jc.NeuralPolicy(init_weights(feature_dim(), make_rng(1)), small_config)
    runs = {
        "greedy": lambda: jc.cluster_greedy(leaves, small_config),
        "beam": lambda: jc.cluster_beam(leaves, 3, small_config),
        "mcts": lambda: jc.cluster_mcts(leaves, jc.fixed_policy("proportional-to-ps", small_config),
                                        _mcts_cfg(n_mcts=3, beam_init_b=2), small_config, make_rng(3)),
        "cluster_policy": lambda: jc.cluster_policy(leaves, nn, small_config),
        "exact_mle": lambda: jc.exact_mle(leaves, small_config),
    }
    for name, run in runs.items():
        with pytest.raises(ValueError, match=f"leaf 1 has a non-finite {component}: {bad!r}"):
            run()


@pytest.mark.parametrize("leaves, message", [
    # E * E of one leaf overflows
    ([jc.FourMomentum(1e308, 0, 0, 0), jc.FourMomentum(2, 0, 0, 1), jc.FourMomentum(3, 0.5, 0, 1)],
     "total energy 1e+308 squared overflows"),
    # an int component beyond the float range
    ([jc.FourMomentum(10**400, 0, 0, 0), jc.FourMomentum(2, 0, 0, 1), jc.FourMomentum(3, 0.5, 0, 1)],
     "leaf 0's E is beyond the float range"),
    # each leaf's square is finite, their sum's is not
    ([jc.FourMomentum(1e154, 0, 0, 0), jc.FourMomentum(1e154, 0, 0, 1e153),
      jc.FourMomentum(3, 0.5, 0, 1)],
     "total energy 2e+154 squared overflows"),
])
def test_every_planner_rejects_leaves_whose_squares_overflow(small_config, leaves, message):
    # These raised a bare "math domain error" or OverflowError that named
    # no leaf.
    nn = jc.NeuralPolicy(init_weights(feature_dim(), make_rng(1)), small_config)
    runs = {
        "greedy": lambda: jc.cluster_greedy(leaves, small_config),
        "beam": lambda: jc.cluster_beam(leaves, 3, small_config),
        "mcts": lambda: jc.cluster_mcts(leaves, jc.fixed_policy("proportional-to-ps", small_config),
                                        _mcts_cfg(n_mcts=3, beam_init_b=2), small_config, make_rng(3)),
        "cluster_policy": lambda: jc.cluster_policy(leaves, nn, small_config),
        "exact_mle": lambda: jc.exact_mle(leaves, small_config),
    }
    for name, run in runs.items():
        with pytest.raises(ValueError, match=re.escape(message)):
            run()


# ---------------------------------------------------------------------------
# MctsConfig.validate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field, value", [
    ("c", math.nan), ("c", math.inf), ("c", -math.inf), ("c", 0.0), ("c", "1.0"), ("c", True),
    ("n_mcts", 2.5), ("n_mcts", True), ("n_mcts", "3"), ("n_mcts", -1),
    ("beam_init_b", 1.0), ("beam_init_b", False), ("beam_init_b", -2),
])
def test_mcts_config_rejects_a_bad_field_by_name(small_config, field, value):
    # A NaN or infinite c made every PUCT score NaN, so argmax always took
    # action 0, and a float n_mcts raised TypeError inside the search.
    cfg = _mcts_cfg(**{field: value})
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        cfg.validate()
    ev = _event(small_config, 3, 4)
    with pytest.raises(ValueError, match=rf"^{field}\b"):
        jc.cluster_mcts(ev, jc.fixed_policy("random"), cfg, small_config, make_rng(0))


def test_mcts_config_takes_numpy_scalars(small_config):
    cfg = _mcts_cfg(c=np.float64(0.7), n_mcts=np.int64(3), beam_init_b=np.int32(2))
    cfg.validate()
    plain = _mcts_cfg(c=0.7, n_mcts=3, beam_init_b=2)
    ev = _event(small_config, 3, 5)
    policy = jc.fixed_policy("random")
    assert (jc.cluster_mcts(ev, policy, cfg, small_config, make_rng(1))[1].hex()
            == jc.cluster_mcts(ev, policy, plain, small_config, make_rng(1))[1].hex())


# ---------------------------------------------------------------------------
# the search hot path before its per-call overhead was cut, kept as the
# oracle: the planners must build the same trees, LL bits, counted cost
# and decisions with either
# ---------------------------------------------------------------------------

def _oracle_add(self, other):
    return FourMomentum(self.E + other.E, self.px + other.px, self.py + other.py, self.pz + other.pz)


def _oracle_apply_action(state, action, reward):
    i, j = action.i, action.j
    if not (0 <= i < j < state.n):
        raise ValueError(f"illegal action ({i}, {j}) for n={state.n}")
    ps, masks = state.particles, state.masks
    return ClusterState(
        particles=merged(ps, i, j, ps[i] + ps[j]),
        masks=merged(masks, i, j, masks[i] | masks[j]),
        cumulative_reward=state.cumulative_reward + reward,
        history=state.history + ((masks[i], masks[j]),),
        leaves=state.leaves,
    )


def _oracle_softmax(logits):
    z = np.exp(logits - logits.max())
    return z / math.fsum(z)


def _oracle_puct_scores(node, c):
    scores = c * node.priors
    scores *= math.sqrt(max(node.n_visits, 1))
    scores /= 1.0 + node.n_sa
    scores += node.q
    return scores


def _oracle_backup(search, path, ret):
    """Weights each return by the clamped formula of the return range."""
    search.lo = min(search.lo, ret)
    search.hi = max(search.hi, ret)
    if search.hi > search.lo:
        w = min(max((ret - search.lo) / (search.hi - search.lo), 0.0), 1.0)
    else:
        w = 0.5
    for node, k in path:
        node.n_visits += 1
        node.n_sa[k] += 1
        node.w_sa[k] += w
        node.q[k] = node.w_sa[k] / node.n_sa[k]
        if ret > node.best_return[k]:
            node.best_return[k] = ret


def _oracle_run_rollout(search, root):
    cfg = search.cfg
    node = root
    path = []
    while not jc.is_terminal(node.state):
        if cfg.rollout_rule == "policy-sample":
            k = int(search.rng.choice(len(node.actions), p=node.priors / node.priors.sum()))
        else:
            k = int(node.puct_scores(cfg.c).argmax())
        path.append((node, k))
        node = search.child(node, k)
    search.backup(path, node.state.cumulative_reward)


@dataclass
class _OracleBeamItem:
    state: object
    path: tuple


def _oracle_beam_from_state(state, b, config):
    """The lazy beam ranking its parents by their lists of Action values."""
    if b < 1:
        raise ValueError(f"beam width must be >= 1, got {b}")
    items = [_OracleBeamItem(state=state, path=())]
    while items[0].state.n > 1:
        by_path = sorted(items, key=lambda item: [a for a, _ in item.path])
        rewards = [_rewards(item.state, config) for item in by_path]
        totals = []
        for item, rs in zip(by_path, rewards):
            cum = item.state.cumulative_reward
            totals += [cum + r for r in rs]
        actions = action_table(items[0].state.n)
        m = len(actions)
        masks = [leaf_sets(item.state) for item in by_path]
        survivors, seen = [], set()
        for c in sorted(range(len(totals)), key=totals.__getitem__, reverse=True):
            h, k = divmod(c, m)
            action = actions[k]
            ls = masks[h]
            key = frozenset(merged(ls, action.i, action.j, ls[action.i] | ls[action.j]))
            if key in seen:
                continue
            seen.add(key)
            item = by_path[h]
            nxt = planners_module.apply_action(item.state, action, rewards[h][k])
            survivors.append(_OracleBeamItem(state=nxt, path=item.path + ((action, nxt),)))
            if len(survivors) == b:
                break
        items = survivors
    return items


def _oracle_insert_beam_trajectories(search, root):
    """Inserts each beam path, finding each action's index by a search of the action table."""
    for item in planners_module._beam_from_state(root.state, search.cfg.beam_init_b, search.config):
        node = root
        path = []
        for action, state_after in item.path:
            k = action_table(node.state.n).index(action)
            path.append((node, k))
            node = search.child(node, k, state=state_after)
        search.backup(path, item.state.cumulative_reward)


@contextmanager
def _oracle_hot_path():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FourMomentum, "__add__", _oracle_add)
        mp.setattr(env_module, "apply_action", _oracle_apply_action)
        mp.setattr(planners_module, "apply_action", _oracle_apply_action)
        mp.setattr(planners_module, "_softmax", _oracle_softmax)
        mp.setattr(planners_module.SearchNode, "puct_scores", _oracle_puct_scores)
        mp.setattr(_Search, "backup", _oracle_backup)
        mp.setattr(_Search, "rollout", _oracle_run_rollout)
        mp.setattr(planners_module, "_beam_from_state", _oracle_beam_from_state)
        mp.setattr(_Search, "seed", _oracle_insert_beam_trajectories)
        yield


def _light_leaves(seed):
    """Leaves of the first light-config event with 3-9 leaves in the
    stream of `seed`."""
    config = jc.ShowerConfig(lam=1.5, t_cut=1.0, root=jc.FourMomentum(5.0, 0.0, 0.0, 1.5))
    for k in range(400):
        leaves = jc.sample_shower(config, make_rng(seed, k)).leaf_momenta()
        if 3 <= len(leaves) <= 9:
            return config, leaves
    raise RuntimeError(f"no light event of 3-9 leaves for seed {seed}")


def _twinned(seed):
    """Every leaf of a light event twice, so rewards come in bit-equal
    ties and only the ranking of paths orders them."""
    config, leaves = _light_leaves(seed)
    return config, [p for p in leaves[:4] for _ in range(2)]


_hot_path_events = st.one_of(
    st.integers(0, 2**31 - 1).map(lambda seed: (DESK, _desk_leaves(seed))),
    st.integers(0, 2**31 - 1).map(_light_leaves),
    st.integers(0, 2**31 - 1).map(_twinned),
)


def _run_summary(tree, ll, cost, decisions=()):
    return ([(node.children, node.momentum.as_tuple()) for node in tree.nodes], ll.hex(), cost,
            [(s.history, s.cumulative_reward.hex(), k) for s, k in decisions])


@settings(max_examples=60, deadline=None)
@given(event=_hot_path_events, prior=st.sampled_from(["proportional-to-ps", "random"]),
       final_rule=st.sampled_from(["max-rollout", "puct-visits"]),
       rollout_rule=st.sampled_from(["puct", "policy-sample"]),
       b=st.sampled_from([0, 1, 3, 5]), c=st.sampled_from([1.0, 0.7, 2.5]),
       n_mcts=st.integers(1, 8), seed=st.integers(0, 2**31 - 1))
def test_search_matches_the_oracle_hot_path(event, prior, final_rule, rollout_rule, b, c, n_mcts, seed):
    config, leaves = event
    cfg = jc.MctsConfig(c=c, n_mcts=n_mcts, beam_init_b=b, final_rule=final_rule,
                        rollout_rule=rollout_rule)

    def runs():
        policy = jc.fixed_policy(prior, config)
        (tree, ll, decisions), cost = _counted(
            lambda: jc.cluster_mcts(leaves, policy, cfg, config, make_rng(seed)))
        out = [_run_summary(tree, ll, cost, decisions)]
        for width in (1, 5):
            (tree, ll), cost = _counted(lambda: jc.cluster_beam(leaves, width, config))
            out.append(_run_summary(tree, ll, cost))
        return out

    fast = runs()
    with _oracle_hot_path():
        assert runs() == fast


@settings(max_examples=50, deadline=None)
@given(logits=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=80))
def test_softmax_matches_the_oracle(logits):
    x = np.array(logits)
    assert _softmax(x).tobytes() == _oracle_softmax(x).tobytes()


def test_values_built_through_slot_setters_match_their_constructors(small_config):
    leaves = _event(small_config, 3, 5)
    a, b = leaves[1], leaves[3]
    fast = a + b
    assert fast._t is None  # filled by the first mass query, as after __init__
    slow = FourMomentum(a.E + b.E, a.px + b.px, a.py + b.py, a.pz + b.pz)
    state = jc.step(reset(leaves), jc.Action(0, 2), small_config)
    after = apply_action(state, jc.Action(1, 3), -2.5)
    ps, masks = state.particles, state.masks
    built = ClusterState(
        particles=merged(ps, 1, 3, ps[1] + ps[3]),
        masks=merged(masks, 1, 3, masks[1] | masks[3]),
        cumulative_reward=state.cumulative_reward + -2.5,
        history=state.history + ((masks[1], masks[3]),),
        leaves=state.leaves,
    )
    for got, want in ((fast, slow), (after, built)):
        assert type(got) is type(want)
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert pickle.dumps(got) == pickle.dumps(want)
        assert pickle.loads(pickle.dumps(got)) == want
        for f in dataclasses.fields(got):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, f.name, getattr(got, f.name))
    assert jc.invariant_mass_sq(fast) == jc.invariant_mass_sq(slow)
    assert fast._t == slow._t
