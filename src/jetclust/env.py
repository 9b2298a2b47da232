"""The clustering MDP: states are particle sets, actions merge a pair,
the reward is the log splitting density of the merge, and an episode
ends when a single particle is left.  Transitions are deterministic and
states are immutable values, so any number of episodes can run
concurrently."""

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cache
from types import MappingProxyType

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
    particles: tuple[FourMomentum, ...]
    ids: tuple[int, ...]
    cumulative_reward: float
    # (id_a, id_b) per merge; the k-th merge creates id len(leaves) + k
    history: tuple[tuple[int, int], ...]
    leaves: tuple[FourMomentum, ...]  # original observed particles, id k = leaves[k]

    @property
    def n(self) -> int:
        return len(self.particles)


@dataclass(frozen=True, slots=True)
class Transition:
    next_state: ClusterState
    reward: float
    done: bool


def check_leaves(leaves: Sequence[FourMomentum]) -> None:
    """Raise ValueError unless there are at least two leaves, each with
    finite components, a non-negative energy and a momentum that is not
    spacelike beyond tolerance.  A NaN or infinite component would
    otherwise pass the energy and mass checks and score as a NaN LL."""
    if len(leaves) < 2:
        raise ValueError(f"need at least 2 particles, got {len(leaves)}")
    for k, p in enumerate(leaves):
        for name in ("E", "px", "py", "pz"):
            if not math.isfinite(getattr(p, name)):
                raise ValueError(f"leaf {k} has a non-finite {name}: {getattr(p, name)!r}")
        if p.E < 0.0:
            raise ValueError("particle energies must be non-negative")
        invariant_mass_sq(p)  # raises if spacelike beyond tolerance


def reset(leaves: list[FourMomentum] | tuple[FourMomentum, ...]) -> ClusterState:
    """Initial state over the observed particles."""
    check_leaves(leaves)
    leaves = tuple(leaves)
    return ClusterState(
        particles=leaves,
        ids=tuple(range(len(leaves))),
        cumulative_reward=0.0,
        history=(),
        leaves=leaves,
    )


def is_terminal(state: ClusterState) -> bool:
    return state.n == 1


def legal_actions(state: ClusterState) -> list[Action]:
    """All C(n, 2) index pairs in lexicographic order; empty at terminal."""
    n = state.n
    return [Action(i, j) for i in range(n) for j in range(i + 1, n)]


@cache
def action_table(n: int) -> tuple[tuple[Action, ...], Mapping[Action, int]]:
    """The legal actions of every n-particle state, in legal_actions
    order, and a read-only map from each action to its position.  Built
    once per n and shared, for search that visits many states of one
    size; the tables of all n up to 31 hold about 0.5 MB."""
    actions = tuple(Action(i, j) for i in range(n) for j in range(i + 1, n))
    return actions, MappingProxyType({a: k for k, a in enumerate(actions)})


def apply_action(state: ClusterState, action: Action, reward: float) -> Transition:
    """Apply a merge whose reward has already been evaluated.  Planners
    that score all pairs anyway use this so the evaluation counter sees
    each splitting-density call exactly once."""
    i, j = action.i, action.j
    if not (0 <= i < j < state.n):
        raise ValueError(f"illegal action ({i}, {j}) for n={state.n}")
    ps, ids = state.particles, state.ids
    new_id = len(state.leaves) + len(state.history)
    next_state = ClusterState(
        particles=ps[:i] + ps[i + 1:j] + ps[j + 1:] + (ps[i] + ps[j],),
        ids=ids[:i] + ids[i + 1:j] + ids[j + 1:] + (new_id,),
        cumulative_reward=state.cumulative_reward + reward,
        history=state.history + ((ids[i], ids[j]),),
        leaves=state.leaves,
    )
    return Transition(next_state=next_state, reward=reward, done=next_state.n == 1)


def step(state: ClusterState, action: Action, config: ShowerConfig) -> Transition:
    """Deterministic transition: replace particles i and j by their sum;
    the reward is the log splitting density of that merge."""
    i, j = action.i, action.j
    if not (0 <= i < j < state.n):
        raise ValueError(f"illegal action ({i}, {j}) for n={state.n}")
    reward = splitting_log_likelihood(Splitting(state.particles[i], state.particles[j]), config)
    return apply_action(state, action, reward)


def leaf_sets(state: ClusterState) -> tuple[frozenset[int], ...]:
    """For each current particle, the set of original leaf ids it contains."""
    sets = [frozenset((k,)) for k in range(len(state.leaves))]
    for id_a, id_b in state.history:
        sets.append(sets[id_a] | sets[id_b])
    return tuple(sets[pid] for pid in state.ids)


def tree_from_history(
    leaves: tuple[FourMomentum, ...],
    history: Sequence[tuple[int, int]],
) -> Tree:
    """Rebuild the clustering tree from a completed history of (id_a, id_b)
    merges.  Node index equals particle id: leaves, then merge k at len(leaves) + k."""
    n = len(leaves)
    if len(history) != n - 1:
        raise ValueError(f"history has {len(history)} merges, need {n - 1} for {n} leaves")
    nodes = [TreeNode(momentum=p, t=invariant_mass_sq(p)) for p in leaves]
    for id_a, id_b in history:
        nodes[id_a].parent = nodes[id_b].parent = len(nodes)
        momentum = nodes[id_a].momentum + nodes[id_b].momentum
        nodes.append(TreeNode(momentum=momentum, t=invariant_mass_sq(momentum), children=(id_a, id_b)))
    return Tree(nodes=nodes, root_index=len(nodes) - 1, leaf_indices=list(range(n)))


def tree_from_state(state: ClusterState) -> Tree:
    if not is_terminal(state):
        raise ValueError("state is not terminal; the clustering is incomplete")
    return tree_from_history(state.leaves, state.history)
