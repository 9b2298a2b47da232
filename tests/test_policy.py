import json
import math

import numpy as np
import pytest

import jetclust as jc
from jetclust.env import legal_actions, reset, step
from jetclust.features import extract_pair_features, feature_dim
from jetclust.policy import (
    Demonstration,
    flatten_weights,
    init_weights,
    unflatten_weights,
)
from jetclust.rng import make_rng

from conftest import make_event


def _zero_weights(d=None):
    w = init_weights(d or feature_dim(), make_rng(0))
    for a in w.arrays():
        a[...] = 0.0
    return w


def _random_state(config, seed, n_leaves, n_merges=0):
    leaves = make_event(config, seed=seed, n_leaves=n_leaves).leaf_momenta()
    state = reset(leaves)
    rng = make_rng(seed, 999)
    for _ in range(n_merges):
        acts = legal_actions(state)
        state = step(state, acts[int(rng.integers(len(acts)))], config).next_state
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
            acts = legal_actions(state)
            state = step(state, acts[int(rng.integers(len(acts)))], small_config).next_state
    assert checked >= 1000


def test_forward_rejects_terminal(small_config):
    state = _random_state(small_config, 3, 2, n_merges=1)
    with pytest.raises(ValueError):
        jc.policy_forward(_zero_weights(), state, small_config)


def test_forward_is_permutation_equivariant(small_config):
    w = init_weights(feature_dim(), make_rng(13))
    leaves = make_event(small_config, seed=17, n_leaves=7).leaf_momenta()
    probs = jc.policy_forward(w, reset(leaves), small_config)
    acts = legal_actions(reset(leaves))
    for trial in range(10):
        perm = make_rng(19, trial).permutation(len(leaves))
        permuted = reset([leaves[k] for k in perm])
        probs_p = jc.policy_forward(w, permuted, small_config)
        where = {int(p): k for k, p in enumerate(perm)}
        index_p = {(a.i, a.j): k for k, a in enumerate(legal_actions(permuted))}
        for k, a in enumerate(acts):
            i, j = sorted((where[a.i], where[a.j]))
            assert probs[k] == probs_p[index_p[(i, j)]]  # bit-identical


def test_feature_determinism_and_ps_column(small_config):
    state = _random_state(small_config, 23, 6, n_merges=2)
    x1 = extract_pair_features(state, small_config)
    x2 = extract_pair_features(state, small_config)
    assert np.array_equal(x1, x2)
    assert np.all(np.isfinite(x1))
    for row, a in enumerate(legal_actions(state)):
        s = jc.Splitting(state.particles[a.i], state.particles[a.j])
        assert x1[row, -1] == jc.splitting_log_likelihood(s, small_config)


def test_features_share_cost_counter(small_config):
    state = _random_state(small_config, 23, 6)
    jc.PS_EVALUATIONS.reset()
    extract_pair_features(state, small_config)
    assert jc.PS_EVALUATIONS.count == 15
    jc.PS_EVALUATIONS.reset()
    extract_pair_features(state, small_config, include_ps=False)
    assert jc.PS_EVALUATIONS.count == 0


def test_uniform_loss_is_log_action_count(small_config):
    state = _random_state(small_config, 3, 3)
    demo = Demonstration(extract_pair_features(state, small_config), targets=(0,))
    loss, _ = jc.policy_loss_and_grad(_zero_weights(), demo)
    assert loss == pytest.approx(math.log(3), abs=1e-12)


def test_gradient_matches_finite_differences(small_config):
    rng = make_rng(29)
    worst = 0.0
    for trial in range(10):
        w = init_weights(feature_dim(), make_rng(31, trial))
        state = _random_state(small_config, 37 + trial, 5, n_merges=trial % 3)
        m = len(legal_actions(state))
        n_targets = 1 + trial % 2
        targets = tuple(int(v) for v in rng.choice(m, size=n_targets, replace=False))
        demo = Demonstration(extract_pair_features(state, small_config), targets)
        loss, grad = jc.policy_loss_and_grad(w, demo)
        flat_w = flatten_weights(w)
        flat_g = flatten_weights(grad)
        eps = 1e-6
        for idx in rng.choice(flat_w.size, size=25, replace=False):
            up = flat_w.copy(); up[idx] += eps
            dn = flat_w.copy(); dn[idx] -= eps
            lu, _ = jc.policy_loss_and_grad(unflatten_weights(up, w), demo)
            ld, _ = jc.policy_loss_and_grad(unflatten_weights(dn, w), demo)
            fd = (lu - ld) / (2 * eps)
            denom = max(abs(fd), abs(flat_g[idx]), 1e-8)
            worst = max(worst, abs(fd - flat_g[idx]) / denom)
    assert worst < 1e-4


def test_loss_decreases_under_descent(small_config):
    state = _random_state(small_config, 41, 5)
    demo = Demonstration(extract_pair_features(state, small_config), targets=(2,))
    w = init_weights(feature_dim(), make_rng(43))
    losses = []
    for _ in range(100):
        loss, grad = jc.policy_loss_and_grad(w, demo)
        losses.append(loss)
        for arr, g in zip(w.arrays(), grad.arrays()):
            arr -= 0.01 * g
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
    assert losses[-1] < losses[0]


def test_demonstration_validation():
    with pytest.raises(ValueError):
        Demonstration(np.zeros((3, 2)), targets=()).validate()
    with pytest.raises(ValueError):
        Demonstration(np.zeros((3, 2)), targets=(5,)).validate()


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
    nodes = [TreeNode(momentum=p, t=jc.invariant_mass_sq(p)) for p in momenta]
    for a, b in merges:
        p = nodes[a].momentum + nodes[b].momentum
        nodes.append(TreeNode(momentum=p, t=jc.invariant_mass_sq(p), children=(a, b)))
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
    state = step(state, jc.Action(0, 2), small_config).next_state  # not a sibling pair
    assert jc.truth_actions(state, tree) == []


def test_truth_actions_follow_merges(small_config):
    tree = make_event(small_config, seed=53, n_leaves=6)
    state = reset(tree.leaf_momenta())
    rng = make_rng(59)
    while not jc.is_terminal(state):
        targets = jc.truth_actions(state, tree)
        assert targets  # demonstrator-consistent states always have one
        state = step(state, targets[int(rng.integers(len(targets)))], small_config).next_state
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
            acts = legal_actions(state)
            if len(acts) >= 10:
                probs = jc.policy_forward(w, state, config)
                hits += acts[int(np.argmax(probs))] in targets
                tries += 1
                uniform.append(1.0 / len(acts))
            state = step(state, targets[int(rng.integers(len(targets)))], config).next_state
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
    cfg = jc.MctsConfig(c=1.0, n_mcts=3, beam_init_b=2, use_beam_init=True)
    w, losses = jc.train_mcts_policy(small_events[:8], cfg, small_config,
                                     steps=200, lr=0.03, rng=make_rng(6, 0))
    assert len(losses) == 200
    assert all(np.isfinite(losses))


def test_train_mcts_policy_accepts_pretrained_init(small_config, small_events):
    bc, _ = jc.train_bc(small_events[:8], small_config, steps=100, lr=0.05, rng=make_rng(7, 0))
    cfg = jc.MctsConfig(c=1.0, n_mcts=2, beam_init_b=2, use_beam_init=True)
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
    probs = jc.policy_forward(w, state, small_config, include_ps=False)
    assert abs(probs.sum() - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_weights_round_trip(tmp_path, small_config):
    w = init_weights(feature_dim(), make_rng(9))
    path = tmp_path / "weights.bin"
    jc.save_weights(path, w, include_ps=True, config_hash="abc123")
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


def test_neural_policy_validates_dims(small_config):
    w = init_weights(feature_dim(include_ps=False), make_rng(10))
    with pytest.raises(ValueError):
        jc.NeuralPolicy(w, small_config, include_ps=True)
