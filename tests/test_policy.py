import dataclasses
import hashlib
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetclust as jc
from jetclust.env import action_table, is_terminal, leaf_sets, reset, step
from jetclust.features import FEATURE_SCHEMA_VERSION, N_BASE_FEATURES, extract_pair_features, feature_dim
from jetclust.shower import invariant_mass_sq
from jetclust.policy import (
    GRAD_CLIP_NORM,
    MLE_DEMONSTRATOR_MAX_N,
    NeuralPolicy,
    PolicyWeights,
    _demonstrated,
    _demonstrator_tree,
    _sgd_update,
    _sibling_map,
    init_weights,
)
from jetclust.rng import make_rng

from conftest import SMALL_CONFIG, as_frozensets, make_event


def _zero_weights(d=None):
    w = init_weights(d or feature_dim(), make_rng(0))
    for a in w.arrays():
        a[...] = 0.0
    return w


def test_init_weights_draws_the_per_array_normals():
    # w1, w2 and w3 in that order, each at 1/sqrt(fan-in), into the views
    # of one flat vector; zero biases.
    for d in (feature_dim(True), feature_dim(False)):
        rng = make_rng(3, d)

        def dense(n_in, n_out):
            return rng.normal(0.0, 1.0 / math.sqrt(n_in), size=(n_in, n_out))

        h = 64
        expected = [dense(d, h), np.zeros(h), dense(h, h), np.zeros(h), dense(h, 1)[:, 0], np.zeros(())]
        w = init_weights(d, make_rng(3, d))
        assert [a.shape for a in w.arrays()] == [a.shape for a in expected]
        assert all(np.shares_memory(a, w.theta) for a in w.arrays())
        assert w.theta.tobytes() == np.concatenate([a.ravel() for a in expected]).tobytes()
    # theta must hold the views' memory: the right size, float64 and contiguous.
    for theta, dim in ((np.zeros(w.theta.size), d + 1), (np.zeros(w.theta.size, dtype=np.float32), d),
                       (np.zeros(2 * w.theta.size)[::2], d)):
        with pytest.raises(ValueError, match="contiguous float64 vector"):
            PolicyWeights(theta, dim)


def _random_state(config, seed, n_leaves, n_merges=0):
    leaves = make_event(config, seed=seed, n_leaves=n_leaves).leaf_momenta()
    state = reset(leaves)
    rng = make_rng(seed, 999)
    for _ in range(n_merges):
        acts = action_table(state.n)
        state = step(state, acts[int(rng.integers(len(acts)))], config)
    return state


def test_zero_weights_give_uniform_distribution(small_config):
    state = _random_state(small_config, 3, 5)
    probs = jc.policy_forward(_zero_weights(), state, small_config)
    assert np.allclose(probs, 1.0 / 10, atol=1e-12)


def test_forward_normalization_over_random_states(small_config):
    w = init_weights(feature_dim(), make_rng(5))
    rng = make_rng(7)
    checked = 0
    for k in range(250):
        tree = jc.sample_shower(small_config, make_rng(11, k))
        state = reset(tree.leaf_momenta())
        while not jc.is_terminal(state):
            probs = jc.policy_forward(w, state, small_config)
            assert abs(probs.sum() - 1.0) <= 1e-6
            assert np.all(probs > 0.0)
            if len(probs) > 1:
                assert np.all(probs < 1.0)
            checked += 1
            acts = action_table(state.n)
            state = step(state, acts[int(rng.integers(len(acts)))], small_config)
    assert checked >= 1000


def test_forward_rejects_terminal(small_config):
    state = _random_state(small_config, 3, 2, n_merges=1)
    with pytest.raises(ValueError):
        jc.policy_forward(_zero_weights(), state, small_config)


def test_forward_is_permutation_equivariant(small_config):
    w = init_weights(feature_dim(), make_rng(13))
    leaves = make_event(small_config, seed=17, n_leaves=7).leaf_momenta()
    probs = jc.policy_forward(w, reset(leaves), small_config)
    acts = action_table(len(leaves))
    for trial in range(10):
        perm = make_rng(19, trial).permutation(len(leaves))
        permuted = reset([leaves[k] for k in perm])
        probs_p = jc.policy_forward(w, permuted, small_config)
        where = {int(p): k for k, p in enumerate(perm)}
        index_p = {(a.i, a.j): k for k, a in enumerate(action_table(permuted.n))}
        for k, a in enumerate(acts):
            i, j = sorted((where[a.i], where[a.j]))
            assert probs[k] == probs_p[index_p[(i, j)]]  # bit-identical


def test_feature_determinism_and_ps_column(small_config):
    state = _random_state(small_config, 23, 6, n_merges=2)
    x1 = extract_pair_features(state, small_config)
    x2 = extract_pair_features(state, small_config)
    assert np.array_equal(x1, x2)
    assert np.all(np.isfinite(x1))
    for row, a in enumerate(action_table(state.n)):
        s = jc.Splitting(state.particles[a.i], state.particles[a.j])
        assert x1[row, -1] == min(max(jc.splitting_log_likelihood(s, small_config), -100.0), 100.0) * 0.1


def _condition_inputs(x):
    """The scaling of the n and log p_s columns, as the policy applied it
    to raw feature rows before extract_pair_features took it over."""
    x = x.copy()
    x[:, 11] *= 0.05
    if x.shape[1] > N_BASE_FEATURES:
        x[:, N_BASE_FEATURES] = np.clip(x[:, N_BASE_FEATURES], -100.0, 100.0) * 0.1
    return x


def _row_loop_features(state, config, include_ps=True):
    """The raw feature matrix built one row at a time, as before the
    columns were vectorised; its _condition_inputs is the oracle of
    extract_pair_features."""
    e_tot = math.fsum(p.E for p in state.particles)
    e_scale = 1.0 / e_tot
    t_scale = e_scale * e_scale
    n = float(state.n)
    masses = [invariant_mass_sq(p) for p in state.particles]
    actions = action_table(state.n)
    out = np.empty((len(actions), feature_dim(include_ps)))
    for row, act in enumerate(actions):
        pi, pj = state.particles[act.i], state.particles[act.j]
        ti, tj = masses[act.i], masses[act.j]
        if pj.as_tuple() > pi.as_tuple():
            pi, pj = pj, pi
            ti, tj = tj, ti
        t_pair = invariant_mass_sq(pi + pj)
        feats = [
            pi.E * e_scale, pi.px * e_scale, pi.py * e_scale, pi.pz * e_scale,
            pj.E * e_scale, pj.px * e_scale, pj.py * e_scale, pj.pz * e_scale,
            ti * t_scale, tj * t_scale, t_pair * t_scale, n,
        ]
        if include_ps:
            feats.append(jc.splitting_log_likelihood(jc.Splitting(pi, pj), config))
        out[row] = feats
    return out


def _assert_features_match_row_loop(state, config):
    for include_ps in (True, False):
        jc.PS_EVALUATIONS.reset()
        expected = _condition_inputs(_row_loop_features(state, config, include_ps))
        oracle_cost = jc.PS_EVALUATIONS.count
        jc.PS_EVALUATIONS.reset()
        got = extract_pair_features(state, config, include_ps)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        assert jc.PS_EVALUATIONS.count == oracle_cost


@given(st.integers(0, 10_000), st.integers(2, 14), st.data())
@settings(max_examples=60, deadline=None)
def test_features_match_row_loop_on_random_states(seed, n_leaves, data):
    config = jc.DESK_CONFIG
    leaves = jc.sample_shower(config, make_rng(seed)).leaf_momenta()[:n_leaves]
    if len(leaves) < 2:
        return
    state = reset(leaves)
    n_merges = data.draw(st.integers(0, state.n - 2))
    for _ in range(n_merges):
        actions = action_table(state.n)
        state = step(state, actions[data.draw(st.integers(0, len(actions) - 1))], config)
    _assert_features_match_row_loop(state, config)


def test_features_match_row_loop_on_tied_energies(small_config):
    # Equal energies send the canonical order to px, py and pz; equal
    # momenta and a signed zero compare equal and keep their positions.
    F = jc.FourMomentum
    leaves = [F(2.0, 0.0, 0.0, 1.0), F(2.0, 0.0, 0.0, -1.0), F(2.0, 0.5, 0.0, 0.0),
              F(2.0, 0.0, 0.0, 1.0), F(1.0, 0.0, 0.0, 0.5), F(2.0, -0.0, 0.0, 1.0),
              F(2.0, 0.0, -0.5, 0.0), F(2.0, 0.0, 0.5, 0.0), F(1, 0, 0, 0)]
    state = reset(leaves)
    _assert_features_match_row_loop(state, small_config)
    for k in range(3):
        state = step(state, action_table(state.n)[k], small_config)
        _assert_features_match_row_loop(state, small_config)


def _stacked_per_state(states, config, include_ps):
    """Each state's matrix on its own, stacked, and the counted cost."""
    start = jc.PS_EVALUATIONS.count
    x = np.concatenate([extract_pair_features(s, config, include_ps) for s in states])
    return x, jc.PS_EVALUATIONS.count - start


def _assert_batch_matches_per_state(states, config):
    for include_ps in (True, False):
        expected, oracle_cost = _stacked_per_state(states, config, include_ps)
        start = jc.PS_EVALUATIONS.count
        got = extract_pair_features(states, config, include_ps)
        assert jc.PS_EVALUATIONS.count - start == oracle_cost
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


def _episode(config, leaves, rng):
    """The non-terminal states of a random episode from leaves."""
    state, states = reset(leaves), []
    while not is_terminal(state):
        states.append(state)
        acts = action_table(state.n)
        state = step(state, acts[int(rng.integers(len(acts)))], config)
    return states


@given(st.integers(0, 10_000), st.integers(2, 14), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_batched_features_match_per_state_on_episodes(seed, n_leaves, n_others):
    # One episode shares its particle objects across states; states of
    # other events are mixed in, so a value reused by row position rather
    # than by particle identity lands on the wrong row.
    config = jc.DESK_CONFIG
    rng = make_rng(seed, 1)
    states = []
    for k in range(1 + n_others):
        leaves = jc.sample_shower(config, make_rng(seed, k)).leaf_momenta()[:n_leaves]
        if len(leaves) >= 2:
            states += _episode(config, leaves, rng)
    if states:
        _assert_batch_matches_per_state(states, config)


def test_batched_features_on_small_and_repeated_states(small_config):
    F = jc.FourMomentum
    a, b, c = F(2.0, 0.0, 0.0, 1.0), F(3.0, 0.5, 0.0, 0.5), F(1.0, 0.0, 0.5, 0.0)
    two = reset([a, b])
    twice = reset([a, b, c, a, b, c])  # every leaf object given twice
    cases = [
        [two],
        [two, two],
        [twice],
        _episode(small_config, [a, b, c, a, b, c], make_rng(3)),
        [two, twice, reset([c, a]), two, twice],
    ]
    for states in cases:
        _assert_batch_matches_per_state(states, small_config)
    # Rows reuse values, yet each row is still counted.
    jc.PS_EVALUATIONS.reset()
    extract_pair_features([twice, twice], small_config)
    assert jc.PS_EVALUATIONS.count == 30


def test_batched_features_match_row_loop_on_tied_energies(small_config):
    F = jc.FourMomentum
    leaves = [F(2.0, 0.0, 0.0, 1.0), F(2.0, 0.0, 0.0, -1.0), F(2.0, 0.5, 0.0, 0.0),
              F(2.0, 0.0, 0.0, 1.0), F(1.0, 0.0, 0.0, 0.5), F(2.0, -0.0, 0.0, 1.0),
              F(2.0, 0.0, -0.5, 0.0), F(2.0, 0.0, 0.5, 0.0), F(1, 0, 0, 0)]
    states = _episode(small_config, leaves, make_rng(4))
    x = extract_pair_features(states, small_config)
    expected = np.concatenate([_condition_inputs(_row_loop_features(s, small_config)) for s in states])
    assert x.tobytes() == expected.tobytes()


def test_features_reject_a_spacelike_pair(small_config):
    # Each particle is within the spacelike tolerance, their sum is not.
    nearly = jc.FourMomentum(0.0, 0.0, 0.0, 3e-5)
    state = reset([nearly, nearly, jc.FourMomentum(2.0, 0.0, 0.0, 1.0)])
    with pytest.raises(ValueError, match="spacelike"):
        extract_pair_features(state, small_config, include_ps=False)


def test_features_share_cost_counter(small_config):
    state = _random_state(small_config, 23, 6)
    jc.PS_EVALUATIONS.reset()
    extract_pair_features(state, small_config)
    assert jc.PS_EVALUATIONS.count == 15
    jc.PS_EVALUATIONS.reset()
    extract_pair_features(state, small_config, include_ps=False)
    assert jc.PS_EVALUATIONS.count == 0


@pytest.mark.parametrize("empty", [[], ()])
def test_features_reject_an_empty_sequence(small_config, empty):
    with pytest.raises(ValueError, match="empty sequence of states"):
        extract_pair_features(empty, small_config)


def test_terminal_state_features_are_empty_and_count_nothing(small_config):
    # A terminal state has no pair, so no row and no p_s evaluation, on
    # its own and among other states of its episode.
    leaves = make_event(small_config, seed=29, n_leaves=5).leaf_momenta()
    states = _episode(small_config, leaves, make_rng(29))
    last = states[-1]
    terminal = step(last, action_table(last.n)[0], small_config)
    assert is_terminal(terminal)
    for include_ps in (True, False):
        jc.PS_EVALUATIONS.reset()
        x = extract_pair_features(terminal, small_config, include_ps)
        assert x.shape == (0, feature_dim(include_ps)) and x.dtype == np.float64
        assert extract_pair_features([terminal], small_config, include_ps).shape == x.shape
        assert extract_pair_features([terminal, terminal], small_config, include_ps).shape == x.shape
        assert jc.PS_EVALUATIONS.count == 0
        expected, cost = _stacked_per_state(states, small_config, include_ps)
        for batch in (states + [terminal], [terminal] + states, states[:2] + [terminal] + states[2:]):
            start = jc.PS_EVALUATIONS.count
            got = extract_pair_features(batch, small_config, include_ps)
            assert jc.PS_EVALUATIONS.count - start == cost
            assert got.tobytes() == expected.tobytes() and got.shape == expected.shape


def test_uniform_loss_is_log_action_count(small_config):
    state = _random_state(small_config, 3, 3)
    loss, _ = jc.policy_loss_and_grad(_zero_weights(), extract_pair_features(state, small_config), (0,))
    assert loss == pytest.approx(math.log(3), abs=1e-12)


def test_gradient_matches_finite_differences(small_config):
    rng = make_rng(29)
    worst = 0.0
    for trial in range(10):
        w = init_weights(feature_dim(), make_rng(31, trial))
        state = _random_state(small_config, 37 + trial, 5, n_merges=trial % 3)
        m = len(action_table(state.n))
        n_targets = 1 + trial % 2
        targets = tuple(int(v) for v in rng.choice(m, size=n_targets, replace=False))
        x = extract_pair_features(state, small_config)
        loss, grad = jc.policy_loss_and_grad(w, x, targets)
        flat_w = w.theta
        flat_g = grad.theta
        eps = 1e-6
        for idx in rng.choice(flat_w.size, size=25, replace=False):
            up = flat_w.copy(); up[idx] += eps
            dn = flat_w.copy(); dn[idx] -= eps
            lu, _ = jc.policy_loss_and_grad(PolicyWeights(up, w.input_dim), x, targets)
            ld, _ = jc.policy_loss_and_grad(PolicyWeights(dn, w.input_dim), x, targets)
            fd = (lu - ld) / (2 * eps)
            denom = max(abs(fd), abs(flat_g[idx]), 1e-8)
            worst = max(worst, abs(fd - flat_g[idx]) / denom)
    assert worst < 1e-4


def test_loss_decreases_under_descent(small_config):
    state = _random_state(small_config, 41, 5)
    x = extract_pair_features(state, small_config)
    w = init_weights(feature_dim(), make_rng(43))
    losses = []
    for _ in range(100):
        loss, grad = jc.policy_loss_and_grad(w, x, (2,))
        losses.append(loss)
        for arr, g in zip(w.arrays(), grad.arrays()):
            arr -= 0.01 * g
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_a_target_mass_that_underflows_is_an_infinite_loss(small_config):
    # math.log(0.0) used to raise "math domain error" here.
    state = _random_state(small_config, 41, 5)
    x = extract_pair_features(state, small_config)
    w = init_weights(feature_dim(), make_rng(43))
    w.w3[...] *= 1e6
    probs = jc.policy_forward(w, state, small_config)
    target = int(np.argmin(probs))
    assert probs[target] == 0.0
    loss, grad = jc.policy_loss_and_grad(w, x, (target,))
    assert loss == math.inf
    assert np.isfinite(grad.theta).all()


def test_demonstration_validation():
    w = init_weights(2, make_rng(0))
    with pytest.raises(ValueError, match="at least one target action"):
        jc.policy_loss_and_grad(w, np.zeros((3, 2)), ())
    with pytest.raises(ValueError, match="target indices out of range"):
        jc.policy_loss_and_grad(w, np.zeros((3, 2)), (5,))


# ---------------------------------------------------------------------------
# truth actions
# ---------------------------------------------------------------------------

def test_truth_actions_two_leaf_tree(small_config):
    tree = make_event(small_config, seed=47, n_leaves=2)
    state = reset(tree.leaf_momenta())
    assert jc.truth_actions(state, tree) == [jc.Action(0, 1)]


def _manual_tree(momenta, merges):
    """Tree over explicit leaves; merges are (node_a, node_b) index pairs."""
    from jetclust.shower import Tree, TreeNode
    nodes = [TreeNode(momentum=p) for p in momenta]
    for a, b in merges:
        p = nodes[a].momentum + nodes[b].momentum
        nodes.append(TreeNode(momentum=p, children=(a, b)))
        nodes[a].parent = len(nodes) - 1
        nodes[b].parent = len(nodes) - 1
    return Tree(nodes=nodes, root_index=len(nodes) - 1,
                leaf_indices=list(range(len(momenta))))


def test_truth_actions_caterpillar_has_single_first_pair():
    leaves = [jc.FourMomentum(2.0, 0.0, 0.0, float(k) / 10) for k in range(4)]
    # caterpillar: ((0,1),2),3
    tree = _manual_tree(leaves, [(0, 1), (4, 2), (5, 3)])
    state = reset(leaves)
    assert jc.truth_actions(state, tree) == [jc.Action(0, 1)]


def test_truth_actions_balanced_tree_has_two_first_pairs():
    leaves = [jc.FourMomentum(2.0, 0.0, 0.0, float(k) / 10) for k in range(4)]
    # balanced: (0,1) and (2,3)
    tree = _manual_tree(leaves, [(0, 1), (2, 3), (4, 5)])
    state = reset(leaves)
    assert jc.truth_actions(state, tree) == [jc.Action(0, 1), jc.Action(2, 3)]


def test_truth_actions_off_demonstration_is_empty(small_config):
    leaves = [jc.FourMomentum(2.0, 0.0, 0.0, float(k) / 10) for k in range(4)]
    tree = _manual_tree(leaves, [(0, 1), (2, 3), (4, 5)])
    state = reset(leaves)
    state = step(state, jc.Action(0, 2), small_config)  # not a sibling pair
    assert jc.truth_actions(state, tree) == []


def test_truth_actions_follow_merges(small_config):
    tree = make_event(small_config, seed=53, n_leaves=6)
    state = reset(tree.leaf_momenta())
    rng = make_rng(59)
    while not jc.is_terminal(state):
        targets = jc.truth_actions(state, tree)
        assert targets  # demonstrator-consistent states always have one
        state = step(state, targets[int(rng.integers(len(targets)))], small_config)
    built = jc.tree_from_state(state)
    assert abs(jc.tree_log_likelihood(built, small_config) - tree_ll(tree, small_config)) <= 1e-9


def tree_ll(tree, config):
    return jc.tree_log_likelihood(tree, config)


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def test_train_bc_rejects_empty_dataset(small_config):
    with pytest.raises(ValueError):
        jc.train_bc([], small_config, steps=10, lr=0.01, rng=make_rng(0))


def test_train_bc_rejects_an_unknown_demonstrator(small_config, small_events):
    with pytest.raises(ValueError, match="unknown demonstrator: 'oracle'"):
        jc.train_bc(small_events[:3], small_config, steps=5, lr=0.01, rng=make_rng(0), demonstrator="oracle")


def test_train_bc_learns_above_uniform(medium_events):
    config, events = medium_events
    train, held = events[:45], events[45:]
    w, losses = jc.train_bc(train, config, steps=6000, lr=0.05, rng=make_rng(0, 1))
    assert len(losses) == 6000
    assert all(np.isfinite(losses))

    # score only states with a non-trivial action space; near-terminal
    # states are free points for any policy and wash out the comparison
    hits = tries = 0
    uniform = []
    rng = make_rng(0, 2)
    for event in held:
        state = reset(event.leaves)
        while not jc.is_terminal(state):
            targets = jc.truth_actions(state, event.truth)
            if not targets:
                break
            acts = action_table(state.n)
            if len(acts) >= 10:
                probs = jc.policy_forward(w, state, config)
                hits += acts[int(np.argmax(probs))] in targets
                tries += 1
                uniform.append(1.0 / len(acts))
            state = step(state, targets[int(rng.integers(len(targets)))], config)
    accuracy = hits / tries
    assert tries >= 50
    assert accuracy > 3 * float(np.mean(uniform))


def test_train_bc_is_reproducible(small_config, small_events):
    w1, l1 = jc.train_bc(small_events[:10], small_config, steps=200, lr=0.05, rng=make_rng(4, 0))
    w2, l2 = jc.train_bc(small_events[:10], small_config, steps=200, lr=0.05, rng=make_rng(4, 0))
    assert l1 == l2
    assert all(np.array_equal(a, b) for a, b in zip(w1.arrays(), w2.arrays()))


def test_train_bc_mle_demonstrator(small_config, small_events):
    w, losses = jc.train_bc(small_events[:10], small_config, steps=150, lr=0.05,
                            rng=make_rng(5, 0), demonstrator="mle-for-small-n")
    assert len(losses) == 150
    assert all(np.isfinite(losses))


def test_train_mcts_policy_smoke(small_config, small_events):
    cfg = jc.MctsConfig(c=1.0, n_mcts=3, beam_init_b=2)
    w, losses = jc.train_mcts_policy(small_events[:8], cfg, small_config,
                                     steps=200, lr=0.03, rng=make_rng(6, 0))
    assert len(losses) == 200
    assert all(np.isfinite(losses))


def test_train_mcts_policy_accepts_pretrained_init(small_config, small_events):
    bc, _ = jc.train_bc(small_events[:8], small_config, steps=100, lr=0.05, rng=make_rng(7, 0))
    cfg = jc.MctsConfig(c=1.0, n_mcts=2, beam_init_b=2)
    w, losses = jc.train_mcts_policy(small_events[:8], cfg, small_config, steps=50,
                                     lr=0.03, rng=make_rng(7, 1), init=bc)
    assert len(losses) == 50
    # init weights are copied, not aliased
    assert not any(a is b for a, b in zip(w.arrays(), bc.arrays()))


def test_no_ps_feature_variant_trains(small_config, small_events):
    w, losses = jc.train_bc(small_events[:8], small_config, steps=100, lr=0.05,
                            rng=make_rng(8, 0), include_ps=False)
    assert w.input_dim == feature_dim(include_ps=False)
    state = reset(small_events[0].leaves)
    probs = jc.policy_forward(w, state, small_config)
    assert abs(probs.sum() - 1.0) <= 1e-6


# The per-array network, update and C(n, 2) target scan that training
# used before it moved to one flat parameter vector and an O(n) sibling
# lookup: the oracles of train_bc, train_mcts_policy and truth_actions.

def _oracle_forward(w, x):
    h1 = np.tanh(x @ w.w1 + w.b1)
    h2 = np.tanh(h1 @ w.w2 + w.b2)
    logits = h2 @ w.w3 + w.b3
    shifted = np.exp(logits - logits.max())
    probs = shifted / math.fsum(shifted.tolist())
    return probs, logits, h1, h2, x


def _oracle_loss_and_grad(w, features, targets):
    probs, logits, h1, h2, x = _oracle_forward(w, features)
    t_mask = np.zeros(len(probs))
    t_mask[list(targets)] = 1.0
    zmax = logits.max()
    log_q = math.log(math.fsum(np.exp(logits[list(targets)] - zmax).tolist())) \
        - math.log(math.fsum(np.exp(logits - zmax).tolist()))
    loss = -log_q
    q = max(probs[list(targets)].sum(), 1e-300)
    dlogits = probs - probs * t_mask / q
    dw3 = h2.T @ dlogits
    db3 = np.asarray(dlogits.sum())
    dh2 = np.outer(dlogits, w.w3)
    dz2 = dh2 * (1.0 - h2 * h2)
    dw2 = h1.T @ dz2
    db2 = dz2.sum(axis=0)
    dh1 = dz2 @ w.w2.T
    dz1 = dh1 * (1.0 - h1 * h1)
    dw1 = x.T @ dz1
    db1 = dz1.sum(axis=0)
    grads = (dw1, db1, dw2, db2, dw3, db3)
    return loss, PolicyWeights(np.concatenate([g.ravel() for g in grads]), w.input_dim)


def _oracle_sgd_update(w, grad, lr):
    """The oracle update; returns whether the gradient was clipped."""
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grad.arrays()))
    scale = lr if norm <= GRAD_CLIP_NORM else lr * GRAD_CLIP_NORM / norm
    for target, g in zip(w.arrays(), grad.arrays()):
        target -= scale * g
    return norm > GRAD_CLIP_NORM


def _sibling_pairs(tree):
    position = {node_idx: pos for pos, node_idx in enumerate(tree.leaf_indices)}
    desc = {}

    def fill(idx):
        node = tree.nodes[idx]
        if node.children is None:
            out = frozenset((position[idx],))
        else:
            out = fill(node.children[0]) | fill(node.children[1])
        desc[idx] = out
        return out

    fill(tree.root_index)
    pairs = set()
    for idx in tree.internal_indices():
        ca, cb = tree.nodes[idx].children
        pairs.add(frozenset((desc[ca], desc[cb])))
    return pairs


def _actions_in(state, pairs):
    sets = as_frozensets(leaf_sets(state))
    return [
        a for a in action_table(state.n)
        if frozenset((sets[a.i], sets[a.j])) in pairs
    ]


def test_loss_and_grad_match_the_per_array_oracle(small_config):
    # Bits of the loss (its sign too) and of every gradient array, into
    # a new gradient vector and into a given one; an all-target state has
    # loss -0.0.
    rng = make_rng(25)
    for trial in range(40):
        w = init_weights(feature_dim(), make_rng(26, trial))
        state = _random_state(small_config, 27 + trial, 2 + trial % 6, n_merges=trial % 2)
        m = len(action_table(state.n))
        k = 1 + int(rng.integers(m))
        x = extract_pair_features(state, small_config)
        targets = tuple(int(v) for v in rng.choice(m, size=k, replace=False))
        expected_loss, expected = _oracle_loss_and_grad(w, x, targets)
        given = PolicyWeights(np.empty_like(w.theta), w.input_dim)
        for out in (None, given):
            loss, grad = jc.policy_loss_and_grad(w, x, targets, out)
            assert loss.hex() == expected_loss.hex()
            for a, b in zip(grad.arrays(), expected.arrays()):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert given.theta.tobytes() == expected.theta.tobytes()


def _per_state_train_bc(dataset, config, steps, lr, rng, demonstrator="truth", include_ps=True):
    """train_bc as one SGD step per state, features extracted state by
    state between the steps: the oracle of the episode-at-once loop."""
    weights = init_weights(feature_dim(include_ps), rng)
    losses = []
    trees = {}  # by dataset position: an MLE tree is solved once per position
    while len(losses) < steps:
        for ev_idx in rng.permutation(len(dataset)):
            pos = int(ev_idx)
            event = dataset[pos]
            if pos not in trees:
                trees[pos] = _demonstrator_tree(event, demonstrator, config)
            pairs = _sibling_pairs(trees[pos])
            state = reset(event.leaves)
            while not is_terminal(state) and len(losses) < steps:
                targets = _actions_in(state, pairs)
                if not targets:
                    break
                actions = action_table(state.n)
                loss, grad = _oracle_loss_and_grad(
                    weights, extract_pair_features(state, config, include_ps=include_ps),
                    tuple(actions.index(a) for a in targets))
                _oracle_sgd_update(weights, grad, lr)
                losses.append(loss)
                chosen = targets[int(rng.integers(len(targets)))]
                state = step(state, chosen, config)
            if len(losses) >= steps:
                break
    return weights, losses


def _per_state_train_mcts_policy(dataset, cfg, config, steps, lr, rng, include_ps=True, init=None,
                                 clipped=None):
    """train_mcts_policy with per-decision extraction: its oracle.
    clipped, when given, collects whether each step clipped."""
    if init is None:
        weights = init_weights(feature_dim(include_ps), rng)
    else:
        weights = PolicyWeights(init.theta.copy(), init.input_dim)
    policy = NeuralPolicy(weights, config, include_ps=include_ps)
    losses = []
    while len(losses) < steps:
        for ev_idx in rng.permutation(len(dataset)):
            event = dataset[int(ev_idx)]
            _, _, decisions = jc.cluster_mcts(event.leaves, policy, cfg, config, rng)
            for state, k in decisions:
                feats = extract_pair_features(state, config, include_ps=include_ps)
                loss, grad = _oracle_loss_and_grad(weights, feats, (k,))
                was_clipped = _oracle_sgd_update(weights, grad, lr)
                if clipped is not None:
                    clipped.append(was_clipped)
                losses.append(loss)
                if len(losses) >= steps:
                    break
            if len(losses) >= steps:
                break
    return weights, losses


def _run_counted(train, *args, **kwargs):
    start = jc.PS_EVALUATIONS.count
    weights, losses = train(*args, **kwargs)
    return weights.theta.tobytes(), losses, jc.PS_EVALUATIONS.count - start


def _off_demonstration(events):
    """The events without their last leaf, each with its full truth tree:
    an episode leaves the tree at the first state whose every sibling
    pair needs the missing leaf, at the start or part way through."""
    return [SimpleNamespace(event_id=e.event_id, leaves=e.leaves[:-1], truth=e.truth)
            for e in events if e.n_leaves >= 3]


def test_off_demonstration_events_break_mid_episode(small_events):
    depths = []
    for event in _off_demonstration(small_events[:20]):
        state, depth = reset(event.leaves), 0
        while not is_terminal(state) and (targets := jc.truth_actions(state, event.truth)):
            state, depth = step(state, targets[0], SMALL_CONFIG), depth + 1
        depths.append((depth, is_terminal(state)))
    assert any(d == 0 for d, _ in depths)
    assert any(d > 0 and not done for d, done in depths)


@pytest.mark.parametrize("demonstrator", ["truth", "mle-for-small-n"])
@pytest.mark.parametrize("include_ps", [True, False])
@pytest.mark.parametrize("steps", [1, 23, 400])
def test_train_bc_matches_per_state_loop(small_events, demonstrator, include_ps, steps):
    # 23 steps end mid-episode; 400 run over the dataset more than once.
    events = small_events[:12]
    args = (events, SMALL_CONFIG, steps, 0.05)
    kwargs = dict(demonstrator=demonstrator, include_ps=include_ps)
    got = _run_counted(jc.train_bc, *args, make_rng(12, steps), **kwargs)
    expected = _run_counted(_per_state_train_bc, *args, make_rng(12, steps), **kwargs)
    assert got == expected
    assert len(got[1]) == steps


@pytest.mark.parametrize("steps", [7, 120])
def test_train_bc_matches_per_state_loop_off_demonstration(small_events, steps):
    events = _off_demonstration(small_events[:15])
    got = _run_counted(jc.train_bc, events, SMALL_CONFIG, steps, 0.05, make_rng(13))
    expected = _run_counted(_per_state_train_bc, events, SMALL_CONFIG, steps, 0.05, make_rng(13))
    assert got == expected


def test_train_bc_matches_per_state_loop_on_desk_events(desk_config):
    events = jc.generate_events(desk_config, 6)
    got = _run_counted(jc.train_bc, events, desk_config, 150, 0.03, make_rng(14))
    expected = _run_counted(_per_state_train_bc, events, desk_config, 150, 0.03, make_rng(14))
    assert got == expected


def test_mle_demonstrator_takes_the_truth_above_its_leaf_cap(desk_config):
    events = [e for e in jc.generate_events(desk_config, 10) if e.n_leaves > MLE_DEMONSTRATOR_MAX_N]
    assert len(events) >= 5
    args = (events, desk_config, 120, 0.03)
    mle = _run_counted(jc.train_bc, *args, make_rng(17), demonstrator="mle-for-small-n")
    assert mle == _run_counted(jc.train_bc, *args, make_rng(17), demonstrator="truth")


@pytest.mark.parametrize("include_ps", [True, False])
@pytest.mark.parametrize("steps", [5, 60])
def test_train_mcts_policy_matches_per_state_loop(small_events, include_ps, steps):
    cfg = jc.MctsConfig(c=1.0, n_mcts=3, beam_init_b=2)
    args = (small_events[:6], cfg, SMALL_CONFIG, steps, 0.03)
    got = _run_counted(jc.train_mcts_policy, *args, make_rng(15, steps), include_ps=include_ps)
    expected = _run_counted(_per_state_train_mcts_policy, *args, make_rng(15, steps),
                            include_ps=include_ps)
    assert got == expected
    assert len(got[1]) == steps


def test_train_mcts_policy_matches_per_state_loop_when_clipping(small_events):
    # Weights five times their initial scale drive the gradient norm past
    # GRAD_CLIP_NORM on part of the steps; the bench's settings rarely do.
    init = init_weights(feature_dim(), make_rng(16))
    for a in init.arrays():
        a *= 5.0
    cfg = jc.MctsConfig(c=1.0, n_mcts=3, beam_init_b=2)
    args = (small_events[:6], cfg, SMALL_CONFIG, 40, 0.03)
    clipped = []
    got = _run_counted(jc.train_mcts_policy, *args, make_rng(17), init=init)
    expected = _run_counted(_per_state_train_mcts_policy, *args, make_rng(17), init=init,
                            clipped=clipped)
    assert got == expected
    assert 0 < sum(clipped) < len(clipped)


def test_flat_update_matches_per_array_update_around_the_clip_norm():
    rng = make_rng(18)
    clipped = []
    for trial in range(60):
        w = init_weights(feature_dim(), make_rng(19, trial))
        grad = init_weights(feature_dim(), make_rng(20, trial))
        grad.theta *= 0.25 * (trial % 4 + 1)  # norms of about 5 to 20
        flat = PolicyWeights(w.theta.copy(), w.input_dim)
        lr = float(rng.uniform(0.01, 1.0))
        _sgd_update(flat, PolicyWeights(grad.theta.copy(), grad.input_dim), lr)
        clipped.append(_oracle_sgd_update(w, grad, lr))
        assert flat.theta.tobytes() == w.theta.tobytes()
    assert 0 < sum(clipped) < len(clipped)


def test_train_mcts_policy_leaves_init_unchanged(small_events):
    init = init_weights(feature_dim(), make_rng(21))
    before = init.theta.tobytes()
    cfg = jc.MctsConfig(c=1.0, n_mcts=2, beam_init_b=2)
    w, _ = jc.train_mcts_policy(small_events[:4], cfg, SMALL_CONFIG, 30, 0.3, make_rng(22), init=init)
    assert init.theta.tobytes() == before
    assert w.theta.tobytes() != before


def test_self_imitation_searches_with_the_updated_weights(small_events, monkeypatch):
    # Each episode's MCTS reads the prior's weights as the steps of the
    # episodes before it left them, as the oracle's in-place arrays do.
    import jetclust.policy as policy_module
    real = jc.cluster_mcts

    def spying(seen):
        def spy(event, prior, *args):
            seen.append(prior.weights.theta.tobytes())
            return real(event, prior, *args)
        return spy

    cfg = jc.MctsConfig(c=1.0, n_mcts=3, beam_init_b=2)
    args = (small_events[:6], cfg, SMALL_CONFIG, 60, 0.3)
    got, expected = [], []
    monkeypatch.setattr(policy_module, "cluster_mcts", spying(got))
    jc.train_mcts_policy(*args, make_rng(23))
    monkeypatch.setattr(jc, "cluster_mcts", spying(expected))
    _per_state_train_mcts_policy(*args, make_rng(23))
    assert got == expected
    assert len(got) >= 3
    assert all(a != b for a, b in zip(got, got[1:]))


@pytest.mark.parametrize("demonstrator", ["truth", "mle-for-small-n"])
def test_train_bc_matches_per_state_loop_on_repeated_leaves(small_events, demonstrator):
    # Every leaf object twice: equal momenta in distinct clusters, and
    # truth trees whose leaf positions no longer match the event's.
    events = [SimpleNamespace(event_id=e.event_id, leaves=tuple(e.leaves[:4]) * 2, truth=e.truth)
              for e in small_events[:8]]
    got = _run_counted(jc.train_bc, events, SMALL_CONFIG, 90, 0.05, make_rng(24),
                       demonstrator=demonstrator)
    expected = _run_counted(_per_state_train_bc, events, SMALL_CONFIG, 90, 0.05, make_rng(24),
                            demonstrator=demonstrator)
    assert got == expected


def test_mle_demonstrations_are_solved_per_dataset_position(small_events):
    # Two datasets concatenated: ids 0-5 appear twice, and each event is
    # still cloned from its own MLE tree, as when the ids are distinct.
    first = small_events[:6]
    second = jc.generate_events(dataclasses.replace(SMALL_CONFIG, rng_seed=1), 6)
    colliding = list(first) + second
    distinct = list(first) + [dataclasses.replace(e, event_id=e.event_id + 6) for e in second]
    assert [e.event_id for e in colliding] == list(range(6)) * 2
    args = (SMALL_CONFIG, 150, 0.05)
    got = _run_counted(jc.train_bc, colliding, *args, make_rng(28), demonstrator="mle-for-small-n")
    expected = _run_counted(jc.train_bc, distinct, *args, make_rng(28), demonstrator="mle-for-small-n")
    assert got == expected
    assert got == _run_counted(_per_state_train_bc, colliding, *args, make_rng(28),
                               demonstrator="mle-for-small-n")


def test_train_bc_rejects_a_dataset_that_demonstrates_nothing(small_events):
    # Two leaves that are not siblings in their truth tree: every episode
    # leaves the demonstration at its first state, so no pass fits a step.
    events = [SimpleNamespace(leaves=e.leaves[:2], truth=e.truth) for e in small_events
              if e.n_leaves >= 4 and not jc.truth_actions(reset(e.leaves[:2]), e.truth)][:3]
    assert len(events) == 3
    with pytest.raises(ValueError, match="demonstrated state"):
        jc.train_bc(events, SMALL_CONFIG, 5, 0.05, make_rng(29))


@pytest.mark.parametrize("train", ["bc", "mcts"])
def test_training_that_diverges_raises_before_the_update(small_events, train, monkeypatch):
    # At lr 1e150 a target mass soon underflows; that ended in "math
    # domain error" instead of naming the step, the loss and lr.
    import jetclust.policy as pmod

    updates = []
    sgd_update = pmod._sgd_update
    monkeypatch.setattr(pmod, "_sgd_update", lambda w, g, lr: (updates.append(lr), sgd_update(w, g, lr)))
    with pytest.raises(ValueError, match=r"training diverged: step \d+ has loss inf at lr=1e\+150") as err:
        if train == "bc":
            jc.train_bc(small_events[:5], SMALL_CONFIG, 20, 1e150, make_rng(30))
        else:
            jc.train_mcts_policy(small_events[:5], jc.MctsConfig(n_mcts=2, beam_init_b=1), SMALL_CONFIG, 20,
                                 1e150, make_rng(30))
    step = int(re.search(r"step (\d+)", str(err.value)).group(1))
    assert updates == [1e150] * (step - 1)


def _random_tree(leaves, config, rng):
    state = reset(leaves)
    while not is_terminal(state):
        acts = action_table(state.n)
        state = step(state, acts[int(rng.integers(len(acts)))], config)
    return jc.tree_from_state(state)


@given(st.integers(0, 10_000), st.integers(2, 10), st.sampled_from(["truth", "mle", "random"]),
       st.booleans(), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_sibling_lookup_matches_pair_scan(seed, n_leaves, kind, repeated, drop_last, data):
    # Every walk ends in a 2-leaf state; random-history and balanced MLE
    # trees offer several sibling pairs at once; a leaf dropped from the
    # state, a truth tree over other leaves or a random step leave the
    # demonstration.
    config = jc.DESK_CONFIG
    shower = jc.sample_shower(config, make_rng(seed))
    leaves = tuple(shower.leaf_momenta()[:n_leaves])
    if repeated:
        leaves = leaves[:(n_leaves + 1) // 2] * 2
    if len(leaves) < 2:
        return
    if kind == "truth":
        tree = shower
    elif kind == "mle":
        tree = jc.exact_mle(leaves[:8], config)[1]
    else:
        tree = _random_tree(leaves, config, make_rng(seed, 1))
    if drop_last and len(leaves) >= 3:
        leaves = leaves[:-1]
    pairs, sibling = _sibling_pairs(tree), _sibling_map(tree)
    state = reset(leaves)
    while not is_terminal(state):
        expected = _actions_in(state, pairs)
        assert jc.truth_actions(state, tree) == expected
        actions = action_table(state.n)
        assert _demonstrated(leaf_sets(state), sibling) == tuple(actions.index(a) for a in expected)
        acts = expected if expected and data.draw(st.booleans()) else action_table(state.n)
        state = step(state, acts[data.draw(st.integers(0, len(acts) - 1))], config)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_weights_round_trip(tmp_path, small_config):
    w = init_weights(feature_dim(), make_rng(9))
    path = tmp_path / "weights.bin"
    jc.save_weights(path, w, config_hash="abc123")
    loaded, header = jc.load_weights(path)
    assert header["include_ps"] is True
    assert header["config_hash"] == "abc123"
    assert all(np.array_equal(a, b) for a, b in zip(w.arrays(), loaded.arrays()))


def test_load_weights_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b'{"magic": "nope"}\n')
    with pytest.raises(ValueError):
        jc.load_weights(path)


def test_load_weights_rejects_other_feature_schema(tmp_path):
    path = tmp_path / "weights.bin"
    jc.save_weights(path, init_weights(feature_dim(), make_rng(9)))
    header, payload = path.read_bytes().split(b"\n", 1)
    obj = json.loads(header)
    obj["feature_schema"] = 99
    path.write_bytes(json.dumps(obj, sort_keys=True).encode() + b"\n" + payload)
    with pytest.raises(ValueError, match="feature schema 99"):
        jc.load_weights(path)


def test_load_weights_rejects_a_truncated_payload(tmp_path):
    path = tmp_path / "weights.bin"
    jc.save_weights(path, init_weights(feature_dim(), make_rng(9)))
    data = path.read_bytes()
    for cut in (3, 8, 800):  # part of a float64, one whole value, many values
        path.write_bytes(data[:-cut])
        with pytest.raises(ValueError, match="weights.bin: payload of .* bytes"):
            jc.load_weights(path)
    path.write_bytes(data + b"\0" * 8)
    with pytest.raises(ValueError, match="weights.bin: payload"):
        jc.load_weights(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_load_weights_rejects_non_finite_weights(tmp_path, bad):
    w = init_weights(feature_dim(), make_rng(9))
    w.w2[3, 5] = bad
    path = tmp_path / "weights.bin"
    jc.save_weights(path, w)
    with pytest.raises(ValueError, match="weights.bin: 1 of .* weights are not finite"):
        jc.load_weights(path)


@pytest.mark.parametrize("shapes", [[[13, 64], [64], [64, 64], [64], [64]], [[13, 64], [64], [64, 65], [64], [64], []],
                                    [[13, 64], [64], [64, 64], [64], [64], "x"], "x"])
def test_load_weights_rejects_shapes_of_another_network(tmp_path, shapes):
    path = tmp_path / "weights.bin"
    jc.save_weights(path, init_weights(feature_dim(), make_rng(9)))
    header, payload = path.read_bytes().split(b"\n", 1)
    obj = json.loads(header)
    obj["shapes"] = shapes
    path.write_bytes(json.dumps(obj).encode() + b"\n" + payload)
    with pytest.raises(ValueError, match="weights.bin: weights header shapes .* are not this network's"):
        jc.load_weights(path)


def test_load_weights_rejects_a_header_that_is_not_json(tmp_path):
    path = tmp_path / "weights.bin"
    path.write_bytes(b"\xff\xfe not json\n" + b"\0" * 16)
    with pytest.raises(ValueError, match="weights.bin: not a weights file"):
        jc.load_weights(path)


@pytest.mark.parametrize("include_ps", [True, False])
def test_load_weights_takes_include_ps_from_the_shapes(tmp_path, include_ps):
    path = tmp_path / "weights.bin"
    jc.save_weights(path, init_weights(feature_dim(include_ps), make_rng(9)))
    loaded, header = jc.load_weights(path)
    assert header["include_ps"] is include_ps
    assert loaded.input_dim == feature_dim(include_ps)
    head, payload = path.read_bytes().split(b"\n", 1)
    obj = json.loads(head)
    obj["include_ps"] = not include_ps
    path.write_bytes(json.dumps(obj).encode() + b"\n" + payload)
    with pytest.raises(ValueError, match="weights.bin: weights header include_ps"):
        jc.load_weights(path)


@pytest.mark.parametrize("field, value, shown", [
    ("version", 10**400, "unsupported weights format version 100000000000000000...0000000000000000000"),
    ("feature_schema", "x" * 100_000, "feature schema 'xxxxxxxxxxxx...xxxxxxxxxxxxx', this version reads "
                                      f"{FEATURE_SCHEMA_VERSION}"),
    ("dtype", "x" * 100_000, "weights dtype 'xxxxxxxxxxxx...xxxxxxxxxxxxx', this version reads '<f8'"),
    ("shapes", list(range(100_000)), "weights header shapes [0, 1, 2, 3, 4, 5, ...] are not this network's"),
    ("include_ps", "x" * 100_000, "weights header include_ps 'xxxxxxxxxxxx...xxxxxxxxxxxxx' is not True, "
                                  "which its shapes imply"),
], ids=["version", "feature_schema", "dtype", "shapes", "include_ps"])
def test_a_long_weights_header_value_is_cut_short_in_its_message(tmp_path, field, value, shown):
    path = tmp_path / "weights.bin"
    jc.save_weights(path, init_weights(feature_dim(), make_rng(9)))
    header, payload = path.read_bytes().split(b"\n", 1)
    obj = json.loads(header)
    obj[field] = value
    path.write_bytes(json.dumps(obj).encode() + b"\n" + payload)
    with pytest.raises(ValueError) as info:
        jc.load_weights(path)
    assert str(info.value) == f"{path}: {shown}"


def test_neural_policy_validates_dims(small_config):
    w = init_weights(feature_dim(include_ps=False), make_rng(10))
    with pytest.raises(ValueError):
        jc.NeuralPolicy(w, small_config, include_ps=True)


# ---------------------------------------------------------------------------
# golden roll-outs of the nn and p_s priors
# ---------------------------------------------------------------------------

def _desk_golden():
    """(rows, digest) on the first 10 desk events of seed 0.  The rows are
    "<event id> <planner> <ll.hex()> <counted p_s evaluations>" of the
    argmax roll-out of fixed-seed BC weights (`policy`) and of
    MCTS(20, b=5) with the p_s prior (`mcts-ps`); the digest is a sha256
    of the trained weights, and of policy_forward and the p_s prior at
    every state of each policy roll-out, as bytes.  A one-ulp change to
    either prior moves the digest, though it may not move a row."""
    config = jc.DESK_CONFIG
    events = jc.generate_events(config, 10)
    demos = jc.generate_events(dataclasses.replace(config, rng_seed=1), 30)
    w, _ = jc.train_bc(demos, config, 300, 0.03, make_rng(41))
    nn = NeuralPolicy(w, config)
    ps = jc.fixed_policy("proportional-to-ps", config)
    cfg = jc.MctsConfig(n_mcts=20, beam_init_b=5)
    digest = hashlib.sha256(w.theta.tobytes())
    rows = []
    for event in events:
        runs = [("policy", lambda: jc.cluster_policy(event.leaves, nn, config)),
                ("mcts-ps", lambda: jc.cluster_mcts(event.leaves, ps, cfg, config,
                                                    make_rng(43, event.event_id)))]
        for name, run in runs:
            start = jc.PS_EVALUATIONS.count
            ll = run()[1]
            rows.append(f"{event.event_id} {name} {ll.hex()} {jc.PS_EVALUATIONS.count - start}")
        state = reset(event.leaves)
        while not is_terminal(state):
            probs = jc.policy_forward(w, state, config)
            digest.update(probs.tobytes())
            digest.update(ps.priors(state).tobytes())
            state = step(state, action_table(state.n)[int(probs.argmax())], config)
    return rows, digest.hexdigest()


# Captured before the numpy calls on the prior paths were replaced by the
# ufuncs and methods they end in.  The weights and the policy rows pass
# through BLAS matmuls, whose bits may differ between CPUs and BLAS
# builds (see tests/fingerprint.txt); the mcts-ps rows do not.
DESK_GOLDEN_ROWS = [
    "0 policy -0x1.51e25a7df883bp+5 230",
    "0 mcts-ps -0x1.4e525b238e1bap+5 4844",
    "1 policy -0x1.d72cce379fb86p+5 986",
    "1 mcts-ps -0x1.c6cf90efdff3bp+5 36881",
    "2 policy -0x1.2dc521429ec0cp+5 230",
    "2 mcts-ps -0x1.15d64c99b16b0p+5 5732",
    "3 policy -0x1.3af426c56b7e0p+6 2046",
    "3 mcts-ps -0x1.303d5471245eap+6 79376",
    "4 policy -0x1.0dce8c601638bp+5 174",
    "4 mcts-ps -0x1.0dce8c601638bp+5 3015",
    "5 policy -0x1.5fc6b76d3864ap+5 695",
    "5 mcts-ps -0x1.54efa06ef93b2p+5 25435",
    "6 policy -0x1.2eda02476ab85p+5 174",
    "6 mcts-ps -0x1.2eda02476ab85p+5 3289",
    "7 policy -0x1.3fef479e007eep+5 468",
    "7 mcts-ps -0x1.3c41dea4ded28p+5 13380",
    "8 policy -0x1.743af1ea00982p+5 230",
    "8 mcts-ps -0x1.57f1d02aa8ec0p+5 5582",
    "9 policy -0x1.7c3491351b4aep+5 832",
    "9 mcts-ps -0x1.6fa28d102ad56p+5 29796",
]
DESK_GOLDEN_DIGEST = "0acbb52b29a5701e90e5c6209c7fcaa54de750580ad34e542b334073af6c6185"


def test_desk_golden_of_the_nn_and_ps_priors():
    rows, digest = _desk_golden()
    assert rows == DESK_GOLDEN_ROWS
    assert digest == DESK_GOLDEN_DIGEST
