import math
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetclust as jc
from jetclust.env import ClusterState, action_table, apply_action, leaf_sets
from jetclust.rng import make_rng

from conftest import as_frozensets, make_event


def _leaves(config, seed, n):
    return make_event(config, seed=seed, n_leaves=n).leaf_momenta()


def _legal_actions(state):
    """All C(n, 2) index pairs in lexicographic order; empty at terminal
    (the body of the removed env.legal_actions)."""
    n = state.n
    return [jc.Action(i, j) for i in range(n) for j in range(i + 1, n)]


def test_reset_two_leaves(small_config):
    state = jc.reset(_leaves(small_config, 3, 2))
    assert state.n == 2
    assert list(action_table(state.n)) == [jc.Action(0, 1)]
    assert state.cumulative_reward == 0.0
    assert state.history == ()


def test_reset_counts_actions(small_config):
    state = jc.reset(_leaves(small_config, 3, 5))
    assert len(action_table(state.n)) == 10


def test_reset_is_idempotent(small_config):
    leaves = _leaves(small_config, 3, 4)
    assert jc.reset(leaves) == jc.reset(leaves)


def test_reset_rejects_single_particle():
    with pytest.raises(ValueError):
        jc.reset([jc.FourMomentum(1, 0, 0, 0)])


def test_legal_actions_shapes(small_config):
    assert list(action_table(jc.reset(_leaves(small_config, 3, 3)).n)) == [
        jc.Action(0, 1), jc.Action(0, 2), jc.Action(1, 2)]
    for n in (4, 6, 8):
        state = jc.reset(_leaves(small_config, 5, n))
        assert len(action_table(state.n)) == n * (n - 1) // 2


def test_action_table_matches_legal_actions(small_config):
    for n in range(2, 9):
        state = jc.reset(_leaves(small_config, 3, n))
        actions = action_table(n)
        assert list(actions) == _legal_actions(state)
        assert action_table(n) is actions


def test_legal_actions_empty_at_terminal(small_config):
    state = jc.reset(_leaves(small_config, 3, 2))
    state = jc.step(state, jc.Action(0, 1), small_config)
    assert jc.is_terminal(state)
    assert action_table(state.n) == ()


def test_step_two_leaves_reward_is_tree_likelihood(small_config):
    tree = make_event(small_config, seed=7, n_leaves=2)
    state = jc.reset(tree.leaf_momenta())
    nxt = jc.step(state, jc.Action(0, 1), small_config)
    assert jc.is_terminal(nxt)
    built = jc.tree_from_state(nxt)
    assert nxt.cumulative_reward == pytest.approx(
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
        actions = action_table(state.n)
        state = jc.step(state, actions[int(rng.integers(len(actions)))], small_config)
        after = total(state)
        assert all(abs(a - b) <= 1e-12 for a, b in zip(after, before))


def test_episode_reward_equals_tree_likelihood(small_config):
    rng = make_rng(17)
    for k in range(20):
        leaves = jc.sample_shower(small_config, make_rng(19, k)).leaf_momenta()
        state = jc.reset(leaves)
        n_steps = 0
        while not jc.is_terminal(state):
            actions = action_table(state.n)
            state = jc.step(state, actions[int(rng.integers(len(actions)))], small_config)
            n_steps += 1
        assert n_steps == len(leaves) - 1
        built = jc.tree_from_state(state)
        assert abs(state.cumulative_reward - jc.tree_log_likelihood(built, small_config)) <= 1e-9


def test_step_is_pure(small_config):
    state = jc.reset(_leaves(small_config, 3, 5))
    a = jc.Action(1, 3)
    t1 = jc.step(state, a, small_config)
    t2 = jc.step(state, a, small_config)
    assert t1.cumulative_reward == t2.cumulative_reward
    assert t1 == t2


def test_apply_action_matches_step(small_config):
    state = jc.reset(_leaves(small_config, 3, 4))
    a = jc.Action(0, 2)
    via_step = jc.step(state, a, small_config)
    s = jc.Splitting(state.particles[0], state.particles[2])
    reward = jc.splitting_log_likelihood(s, small_config)
    via_apply = apply_action(state, a, reward)
    assert via_step == via_apply


def test_leaf_sets_tracks_merges(small_config):
    state = jc.reset(_leaves(small_config, 3, 4))
    assert leaf_sets(state) == (0b0001, 0b0010, 0b0100, 0b1000)
    state = jc.step(state, jc.Action(1, 2), small_config)
    assert leaf_sets(state) == (0b0001, 0b1000, 0b0110)


def _frozenset_leaf_sets(state):
    """The clusters of the state as sets of leaf indices, rebuilt from its
    history of mask pairs: every merge joins two distinct current clusters."""
    sets = {frozenset((k,)) for k in range(len(state.leaves))}
    for pair in state.history:
        a, b = as_frozensets(pair)
        assert a != b and a in sets and b in sets
        sets -= {a, b}
        sets.add(a | b)
    return sets


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), data=st.data())
def test_leaf_masks_partition_the_leaves_as_the_frozenset_oracle_does(desk_config, seed, data):
    # Random steps and steps along the truth tree, drawn at each state.
    truth = jc.sample_shower(desk_config, make_rng(seed, 0))
    state = jc.reset(truth.leaf_momenta())
    while True:
        masks = leaf_sets(state)
        assert all(a & b == 0 for a, b in combinations(masks, 2))
        assert reduce(or_, masks) == (1 << len(state.leaves)) - 1
        assert set(as_frozensets(masks)) == _frozenset_leaf_sets(state)
        for p, s in zip(state.particles, as_frozensets(masks)):  # masks[k] is particle k's
            for c in ("E", "px", "py", "pz"):
                want = math.fsum(getattr(state.leaves[k], c) for k in s)
                assert math.isclose(getattr(p, c), want, rel_tol=1e-12, abs_tol=1e-12)
        if jc.is_terminal(state):
            break
        demonstrated = jc.truth_actions(state, truth)
        actions = demonstrated if demonstrated and data.draw(st.booleans()) else action_table(state.n)
        state = jc.step(state, actions[data.draw(st.integers(0, len(actions) - 1))], desk_config)


def test_tree_from_history_requires_completion(small_config):
    state = jc.reset(_leaves(small_config, 3, 4))
    with pytest.raises(ValueError):
        jc.tree_from_state(state)


def test_tree_from_history_of_mask_pairs():
    leaves = (
        jc.FourMomentum(1.1, 0.1, 0.2, 0.3),
        jc.FourMomentum(2.3, 0.7, -0.4, 1.1),
        jc.FourMomentum(0.9, -0.2, 0.3, 0.1),
        jc.FourMomentum(1.7, 0.3, 0.6, -0.9),
    )
    # merge k is node 4 + k: 4 = {1, 3}, 5 = {0, 2}, 6 = the root
    tree = jc.tree_from_history(leaves, ((0b0010, 0b1000), (0b0001, 0b0100), (0b1010, 0b0101)))
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
        jc.tree_from_history(leaves, ((0b0010, 0b1000), (0b0001, 0b0100)))


@pytest.mark.parametrize("history", [
    ((0b0001, 0b0010), (0b0011, 0b0100), (0b0111, 0b10000)),  # a mask beyond the leaves
    ((0b0001, 0b0010), (0b0101, 0b1000), (0b0011, 0b1101)),  # a mask never formed
    ((0b0001, 0b0010), (0b0001, 0b0100), (0b0111, 0b1000)),  # a cluster merged twice
    ((0b0001, 0b0001), (0b0010, 0b0100), (0b0111, 0b1000)),  # a cluster merged with itself
    ((0b0001, 0b0010), (0b0011, 0b0010), (0b0100, 0b1000)),  # overlapping clusters
    ((0b0001, 0b0010), (0b0100, 0b1000), (0b0011, 0b0011)),  # the last merge, one cluster twice
], ids=["unknown-leaf", "never-formed", "already-merged", "self-merge", "overlap", "last-self-merge"])
def test_tree_from_history_rejects_merges_of_non_current_clusters(history):
    leaves = tuple(jc.FourMomentum(1.0 + k, 0.1 * k, 0.0, 0.2) for k in range(4))
    with pytest.raises(ValueError, match="two current clusters"):
        jc.tree_from_history(leaves, history)


def _random_episode(seed, data, config):
    """A desk event and the states of one episode over it whose actions
    hypothesis draws, root state first."""
    states = [jc.reset(jc.sample_shower(config, make_rng(seed, 0)).leaf_momenta())]
    while not jc.is_terminal(states[-1]):
        actions = action_table(states[-1].n)
        states.append(jc.step(states[-1], actions[data.draw(st.integers(0, len(actions) - 1))],
                              config))
    return states


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), data=st.data())
def test_episode_reward_is_the_tree_log_likelihood_bit_for_bit(desk_config, seed, data):
    final = _random_episode(seed, data, desk_config)[-1]
    assert final.cumulative_reward == jc.tree_log_likelihood(jc.tree_from_state(final), desk_config)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), data=st.data())
def test_episode_conserves_momentum(desk_config, seed, data):
    states = _random_episode(seed, data, desk_config)

    def total(state):
        return [math.fsum(getattr(p, c) for p in state.particles) for c in ("E", "px", "py", "pz")]

    reference = total(states[0])
    for state in states[1:]:
        assert all(abs(a - b) <= 1e-12 for a, b in zip(total(state), reference))  # test_02's MDP bound


def _apply_action_by_position(state, action, reward):
    """apply_action's next state built position by position: every particle
    and mask but the merged two, in order, then the merged particle."""
    i, j = action.i, action.j
    keep = [k for k in range(state.n) if k != i and k != j]
    return ClusterState(
        particles=tuple(state.particles[k] for k in keep) + (state.particles[i] + state.particles[j],),
        masks=tuple(state.masks[k] for k in keep) + (state.masks[i] | state.masks[j],),
        cumulative_reward=state.cumulative_reward + reward,
        history=state.history + ((state.masks[i], state.masks[j]),),
        leaves=state.leaves,
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), data=st.data())
def test_apply_action_matches_by_position(desk_config, seed, data):
    state = jc.reset(jc.sample_shower(desk_config, make_rng(seed, 0)).leaf_momenta())
    while not jc.is_terminal(state):
        actions = action_table(state.n)
        action = actions[data.draw(st.integers(0, len(actions) - 1))]
        reward = jc.splitting_log_likelihood(
            jc.Splitting(state.particles[action.i], state.particles[action.j]), desk_config)
        got = apply_action(state, action, reward)
        want = _apply_action_by_position(state, action, reward)
        assert got == want
        assert got.cumulative_reward.hex() == want.cumulative_reward.hex()
        assert got.cumulative_reward == state.cumulative_reward + reward
        assert jc.is_terminal(got) == (want.n == 1)
        state = got
