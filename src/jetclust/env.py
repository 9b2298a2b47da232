"""The clustering MDP: states are particle sets, actions merge a pair,
the reward is the log splitting density of the merge, and an episode
ends when a single particle is left.  `step` returns the next state, an
immutable value, so any number of episodes can run concurrently.  A
cluster is named by its leaf bitmask (bit k = leaf k), as in the trellis."""

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cache

from .shower import (
    FourMomentum,
    ShowerConfig,
    Splitting,
    Tree,
    TreeNode,
    invariant_mass_sq,
    splitting_log_likelihood,
)


@dataclass(frozen=True, slots=True, order=True)
class Action:
    """Merge particles at positions i < j of the current particle list."""

    i: int
    j: int


@dataclass(frozen=True, slots=True)
class ClusterState:
    """A partition of the leaves into clusters.  Particle k of `particles`
    is the cluster whose leaf bitmask is masks[k]; `history` holds the two
    clusters' masks (mask_a, mask_b) of every merge so far."""

    particles: tuple[FourMomentum, ...]
    masks: tuple[int, ...]
    cumulative_reward: float
    history: tuple[tuple[int, int], ...]
    leaves: tuple[FourMomentum, ...]  # original observed particles, bit k = leaves[k]

    @property
    def n(self) -> int:
        return len(self.particles)

    @property
    def next_state(self) -> "ClusterState":  # the state; perfbench's tests still read it
        return self


_new_object = object.__new__
_new_tuple = tuple.__new__
# One setter per field, in field order; a field added to the class
# makes this unpacking fail at import.
_set_particles, _set_masks, _set_cumulative_reward, _set_history, _set_leaves = (
    ClusterState.__dict__[f.name].__set__ for f in fields(ClusterState))


def check_leaves(leaves: Sequence[FourMomentum]) -> None:
    """Raise ValueError unless there are at least two leaves, each with
    finite float components, a non-negative energy and a momentum that is
    not spacelike beyond tolerance, and their total energy squared is
    finite; that total bounds every cluster mass-squared computed later."""
    if len(leaves) < 2:
        raise ValueError(f"need at least 2 particles, got {len(leaves)}")
    for k, p in enumerate(leaves):
        for name, value in zip(("E", "px", "py", "pz"), p.as_tuple()):
            try:
                finite = math.isfinite(value)
            except OverflowError:  # an int that no float holds
                raise ValueError(f"leaf {k}'s {name} is beyond the float range") from None
            if not finite:
                raise ValueError(f"leaf {k} has a non-finite {name}: {value!r}")
        if p.E < 0.0:
            raise ValueError("particle energies must be non-negative")
        invariant_mass_sq(p)  # raises if spacelike beyond tolerance
    total = sum(float(p.E) for p in leaves)
    if not math.isfinite(total * total):
        raise ValueError(f"the leaves' total energy {total!r} squared overflows a float")


def reset(leaves: list[FourMomentum] | tuple[FourMomentum, ...]) -> ClusterState:
    """Initial state over the observed particles."""
    check_leaves(leaves)
    leaves = tuple(leaves)
    return ClusterState(
        particles=leaves,
        masks=tuple(1 << k for k in range(len(leaves))),
        cumulative_reward=0.0,
        history=(),
        leaves=leaves,
    )


def is_terminal(state: ClusterState) -> bool:
    return len(state.particles) == 1


@cache
def action_table(n: int) -> tuple[Action, ...]:
    """The legal actions of every n-particle state, all pairs i < j in the
    lexicographic order that action indices, priors and feature rows
    follow.  Built once per n and shared."""
    return tuple(Action(i, j) for i in range(n) for j in range(i + 1, n))


def merged(values: tuple, i: int, j: int, value) -> tuple:
    """values without positions i < j, and value appended last: how a
    merge lays out a state's particles and anything kept per cluster."""
    return values[:i] + values[i + 1:j] + values[j + 1:] + (value,)


def apply_action(state: ClusterState, action: Action, reward: float) -> ClusterState:
    """Apply a merge whose reward has already been evaluated.  Planners
    that score all pairs anyway use this so the evaluation counter sees
    each splitting-density call exactly once."""
    i, j = action.i, action.j
    ps, masks = state.particles, state.masks
    if not (0 <= i < j < len(ps)):
        raise ValueError(f"illegal action ({i}, {j}) for n={state.n}")
    # Built through the slot descriptors, as __init__ would fill the
    # slots but without its frozen-class object.__setattr__ calls.
    nxt = _new_object(ClusterState)
    _set_particles(nxt, merged(ps, i, j, ps[i] + ps[j]))
    _set_masks(nxt, merged(masks, i, j, masks[i] | masks[j]))
    _set_cumulative_reward(nxt, state.cumulative_reward + reward)
    _set_history(nxt, state.history + ((masks[i], masks[j]),))
    _set_leaves(nxt, state.leaves)
    return nxt


def step(state: ClusterState, action: Action, config: ShowerConfig) -> ClusterState:
    """Deterministic transition: replace particles i and j by their sum;
    the reward is the log splitting density of that merge."""
    i, j = action.i, action.j
    if not (0 <= i < j < state.n):
        raise ValueError(f"illegal action ({i}, {j}) for n={state.n}")
    ps = state.particles
    # tuple.__new__ builds the Splitting in C, as planners._rewards does.
    reward = splitting_log_likelihood(_new_tuple(Splitting, (ps[i], ps[j])), config)
    return apply_action(state, action, reward)


def leaf_sets(state: ClusterState) -> tuple[int, ...]:
    """For each current particle, the bitmask of the leaves it contains
    (bit k = leaf k): the state's masks."""
    return state.masks


def tree_from_history(
    leaves: tuple[FourMomentum, ...],
    history: Sequence[tuple[int, int]],
) -> Tree:
    """Rebuild the clustering tree from a completed history of (mask_a, mask_b)
    merges.  Node k is leaf k, and merge k is node len(leaves) + k.  A merge
    must join two current clusters; ValueError if one is not (a mask
    never formed, already merged, or the same mask twice)."""
    n = len(leaves)
    if len(history) != n - 1:
        raise ValueError(f"history has {len(history)} merges, need {n - 1} for {n} leaves")
    nodes = [TreeNode(momentum=p) for p in leaves]
    node_of = {1 << k: k for k in range(n)}  # current cluster's mask -> node index
    for mask_a, mask_b in history:
        a, b = node_of.pop(mask_a, None), node_of.pop(mask_b, None)
        if a is None or b is None:
            raise ValueError(f"merge ({mask_a:#b}, {mask_b:#b}) does not join two current clusters")
        node_of[mask_a | mask_b] = nodes[a].parent = nodes[b].parent = len(nodes)
        momentum = nodes[a].momentum + nodes[b].momentum
        nodes.append(TreeNode(momentum=momentum, children=(a, b)))
    return Tree(nodes=nodes, root_index=len(nodes) - 1, leaf_indices=list(range(n)))


def tree_from_state(state: ClusterState) -> Tree:
    if not is_terminal(state):
        raise ValueError("state is not terminal; the clustering is incomplete")
    return tree_from_history(state.leaves, state.history)
