import math

import pytest

import jetclust as jc
from jetclust.env import action_table, apply_action, leaf_sets
from jetclust.rng import make_rng

from conftest import make_event


def _leaves(config, seed, n):
    return make_event(config, seed=seed, n_leaves=n).leaf_momenta()


def test_reset_two_leaves(small_config):
    state = jc.reset(_leaves(small_config, 3, 2))
    assert state.n == 2
    assert jc.legal_actions(state) == [jc.Action(0, 1)]
    assert state.cumulative_reward == 0.0
    assert state.history == ()


def test_reset_counts_actions(small_config):
    state = jc.reset(_leaves(small_config, 3, 5))
    assert len(jc.legal_actions(state)) == 10


def test_reset_is_idempotent(small_config):
    leaves = _leaves(small_config, 3, 4)
    assert jc.reset(leaves) == jc.reset(leaves)


def test_reset_rejects_single_particle():
    with pytest.raises(ValueError):
        jc.reset([jc.FourMomentum(1, 0, 0, 0)])


def test_legal_actions_shapes(small_config):
    assert jc.legal_actions(jc.reset(_leaves(small_config, 3, 3))) == [
        jc.Action(0, 1), jc.Action(0, 2), jc.Action(1, 2)]
    for n in (4, 6, 8):
        state = jc.reset(_leaves(small_config, 5, n))
        assert len(jc.legal_actions(state)) == n * (n - 1) // 2


def test_action_table_matches_legal_actions(small_config):
    for n in range(2, 9):
        state = jc.reset(_leaves(small_config, 3, n))
        actions, index = action_table(n)
        assert list(actions) == jc.legal_actions(state)
        assert [index[a] for a in actions] == list(range(len(actions)))
        assert action_table(n)[0] is actions
        with pytest.raises(TypeError):
            index[jc.Action(0, 1)] = 5


def test_legal_actions_empty_at_terminal(small_config):
    state = jc.reset(_leaves(small_config, 3, 2))
    state = jc.step(state, jc.Action(0, 1), small_config).next_state
    assert jc.is_terminal(state)
    assert jc.legal_actions(state) == []


def test_step_two_leaves_reward_is_tree_likelihood(small_config):
    tree = make_event(small_config, seed=7, n_leaves=2)
    state = jc.reset(tree.leaf_momenta())
    tr = jc.step(state, jc.Action(0, 1), small_config)
    assert tr.done
    built = jc.tree_from_state(tr.next_state)
    assert tr.next_state.cumulative_reward == pytest.approx(
        jc.tree_log_likelihood(built, small_config), abs=1e-12)


def test_step_rejects_illegal_action(small_config):
    state = jc.reset(_leaves(small_config, 3, 3))
    for bad in (jc.Action(1, 1), jc.Action(2, 1), jc.Action(0, 3), jc.Action(-1, 1)):
        with pytest.raises(ValueError):
            jc.step(state, bad, small_config)


def test_step_conserves_total_momentum(small_config):
    state = jc.reset(_leaves(small_config, 11, 7))
    rng = make_rng(13)

    def total(s):
        return [math.fsum(getattr(p, c) for p in s.particles) for c in ("E", "px", "py", "pz")]

    before = total(state)
    while not jc.is_terminal(state):
        actions = jc.legal_actions(state)
        state = jc.step(state, actions[int(rng.integers(len(actions)))], small_config).next_state
        after = total(state)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(after, before))


def test_episode_reward_equals_tree_likelihood(small_config):
    rng = make_rng(17)
    for k in range(20):
        leaves = jc.sample_shower(small_config, make_rng(19, k)).leaf_momenta()
        state = jc.reset(leaves)
        n_steps = 0
        while not jc.is_terminal(state):
            actions = jc.legal_actions(state)
            state = jc.step(state, actions[int(rng.integers(len(actions)))], small_config).next_state
            n_steps += 1
        assert n_steps == len(leaves) - 1
        built = jc.tree_from_state(state)
        assert abs(state.cumulative_reward - jc.tree_log_likelihood(built, small_config)) <= 1e-9


def test_step_is_pure(small_config):
    state = jc.reset(_leaves(small_config, 3, 5))
    a = jc.Action(1, 3)
    t1 = jc.step(state, a, small_config)
    t2 = jc.step(state, a, small_config)
    assert t1.reward == t2.reward
    assert t1.next_state == t2.next_state


def test_apply_action_matches_step(small_config):
    state = jc.reset(_leaves(small_config, 3, 4))
    a = jc.Action(0, 2)
    via_step = jc.step(state, a, small_config)
    s = jc.Splitting(state.particles[0], state.particles[2])
    reward = jc.splitting_log_likelihood(s, small_config)
    via_apply = apply_action(state, a, reward)
    assert via_step == via_apply


def test_rollout_forced_on_two_leaves(small_config):
    state = jc.reset(_leaves(small_config, 7, 2))
    final, total, tree = jc.rollout(state, lambda s: jc.legal_actions(s)[0], small_config)
    assert jc.is_terminal(final)
    assert total == final.cumulative_reward
    assert tree.n_leaves == 2


def test_rollout_random_below_exact_mle(small_config, oracle_events):
    event = oracle_events[0]
    mle_ll, _ = jc.exact_mle(event.leaves, small_config)
    rng = make_rng(23)

    def random_selector(s):
        actions = jc.legal_actions(s)
        return actions[int(rng.integers(len(actions)))]

    for _ in range(100):
        _, total, _ = jc.rollout(jc.reset(event.leaves), random_selector, small_config)
        assert total <= mle_ll + 1e-9


def test_rollout_first_action_selector_is_reproducible(small_config):
    leaves = _leaves(small_config, 29, 6)
    first = lambda s: jc.legal_actions(s)[0]
    out1 = jc.rollout(jc.reset(leaves), first, small_config)
    out2 = jc.rollout(jc.reset(leaves), first, small_config)
    assert out1[0] == out2[0]
    assert out1[1] == out2[1]
    # merged parents are appended, so the fixed (0,1) selector pairs
    # fresh particles first: merge k consumes ids (2k, 2k+1) while both
    # exist
    merges = out1[0].history
    assert merges[0][:2] == (0, 1)
    assert merges[1][:2] == (2, 3)


def test_leaf_sets_tracks_merges(small_config):
    state = jc.reset(_leaves(small_config, 3, 4))
    assert leaf_sets(state) == tuple(frozenset((k,)) for k in range(4))
    state = jc.step(state, jc.Action(1, 2), small_config).next_state
    assert leaf_sets(state) == (frozenset((0,)), frozenset((3,)), frozenset((1, 2)))


def test_tree_from_history_requires_completion(small_config):
    state = jc.reset(_leaves(small_config, 3, 4))
    with pytest.raises(ValueError):
        jc.tree_from_state(state)


def test_tree_from_history_of_id_pairs():
    leaves = (
        jc.FourMomentum(1.1, 0.1, 0.2, 0.3),
        jc.FourMomentum(2.3, 0.7, -0.4, 1.1),
        jc.FourMomentum(0.9, -0.2, 0.3, 0.1),
        jc.FourMomentum(1.7, 0.3, 0.6, -0.9),
    )
    # merge k creates id 4 + k: 4 = {1, 3}, 5 = {0, 2}, 6 = the root
    tree = jc.tree_from_history(leaves, ((1, 3), (0, 2), (4, 5)))
    assert tree.root_index == 6
    assert tree.leaf_indices == [0, 1, 2, 3]
    assert [node.children for node in tree.nodes] == [None] * 4 + [(1, 3), (0, 2), (4, 5)]
    assert [node.parent for node in tree.nodes] == [5, 4, 5, 4, 6, 6, None]
    p13 = tuple(a + b for a, b in zip(leaves[1].as_tuple(), leaves[3].as_tuple()))
    p02 = tuple(a + b for a, b in zip(leaves[0].as_tuple(), leaves[2].as_tuple()))
    root = tuple(a + b for a, b in zip(p13, p02))
    for idx, want in ((4, p13), (5, p02), (6, root)):
        assert [x.hex() for x in tree.nodes[idx].momentum.as_tuple()] == [x.hex() for x in want]
        assert tree.nodes[idx].t == jc.invariant_mass_sq(jc.FourMomentum(*want))
    with pytest.raises(ValueError):
        jc.tree_from_history(leaves, ((1, 3), (0, 2)))
