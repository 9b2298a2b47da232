import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetclust as jc
from jetclust.env import ClusterState, action_table, apply_action, leaf_sets
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


def _random_episode(seed, data, config):
    """A desk event and the states of one episode over it whose actions
    hypothesis draws, root state first."""
    states = [jc.reset(jc.sample_shower(config, make_rng(seed, 0)).leaf_momenta())]
    while not jc.is_terminal(states[-1]):
        actions = jc.legal_actions(states[-1])
        states.append(jc.step(states[-1], actions[data.draw(st.integers(0, len(actions) - 1))],
                              config).next_state)
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
    and id but the merged two, in order, then the merged particle."""
    i, j = action.i, action.j
    keep = [k for k in range(state.n) if k != i and k != j]
    return ClusterState(
        particles=tuple(state.particles[k] for k in keep) + (state.particles[i] + state.particles[j],),
        ids=tuple(state.ids[k] for k in keep) + (len(state.leaves) + len(state.history),),
        cumulative_reward=state.cumulative_reward + reward,
        history=state.history + ((state.ids[i], state.ids[j]),),
        leaves=state.leaves,
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), data=st.data())
def test_reached_states_have_increasing_ids_and_apply_action_matches_by_position(
        desk_config, seed, data):
    # The beam ranks a parent's candidates by action index, which orders them
    # as their (ids[i], ids[j]) history entries only while ids increase.
    state = jc.reset(jc.sample_shower(desk_config, make_rng(seed, 0)).leaf_momenta())
    while True:
        assert all(a < b for a, b in zip(state.ids, state.ids[1:]))
        if jc.is_terminal(state):
            break
        actions = jc.legal_actions(state)
        action = actions[data.draw(st.integers(0, len(actions) - 1))]
        reward = jc.splitting_log_likelihood(
            jc.Splitting(state.particles[action.i], state.particles[action.j]), desk_config)
        got = apply_action(state, action, reward)
        want = _apply_action_by_position(state, action, reward)
        assert got.next_state == want
        assert got.next_state.cumulative_reward.hex() == want.cumulative_reward.hex()
        assert got.reward == reward and got.done == (want.n == 1)
        state = got.next_state
