"""Clustering agents: random, greedy, beam search, and PUCT-guided MCTS
with beam-search tree initialization and a max-roll-out final decision.

All planners return the finished clustering tree together with its
accumulated log-likelihood, which equals the tree's recomputed
log-likelihood by construction.  Ties are always broken toward the
lexicographically smallest action so results are reproducible.  The
greedy, beam, MCTS and policy planners cluster one event inside a p_s
memo scope (`shower.ps_memo`), so a splitting density they need again
is looked up, not recomputed, and still counted.
"""

import math
import numbers
from dataclasses import dataclass
from itertools import combinations, repeat
from operator import attrgetter
from typing import Protocol

import numpy as np

from .env import (
    Action,
    ClusterState,
    action_table,
    apply_action,
    is_terminal,
    leaf_sets,
    merged,
    reset,
    step,
    tree_from_state,
)
from .shower import FourMomentum, ShowerConfig, Splitting, Tree, ps_memo, splitting_log_likelihood


class PriorPolicy(Protocol):
    """Anything that produces a prior distribution over legal actions."""

    def priors(self, state: ClusterState) -> np.ndarray: ...


class UniformPolicy:
    def priors(self, state: ClusterState) -> np.ndarray:
        m = state.n * (state.n - 1) // 2
        return np.full(m, 1.0 / m)


class ProportionalPsPolicy:
    """Prior proportional to the splitting likelihood p_s of each pair,
    i.e. a temperature-1 softmax over the per-pair log p_s values."""

    def __init__(self, config: ShowerConfig):
        self.config = config

    def priors(self, state: ClusterState) -> np.ndarray:
        return _softmax(np.array(_rewards(state, self.config)))


def _softmax(logits: np.ndarray) -> np.ndarray:
    # fsum makes the normalizer independent of summation order, so the
    # distribution is bit-identical under particle permutations.
    z = np.exp(logits - logits.max())
    return z / math.fsum(z.tolist())


def fixed_policy(kind: str, config: ShowerConfig | None = None) -> PriorPolicy:
    """'random' for a uniform prior, 'proportional-to-ps' for p_s-weighted."""
    if kind == "random":
        return UniformPolicy()
    if kind == "proportional-to-ps":
        if config is None:
            raise ValueError("proportional-to-ps prior needs the shower config")
        return ProportionalPsPolicy(config)
    raise ValueError(f"unknown fixed policy kind: {kind!r}")


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------

def cluster_random(
    event: list[FourMomentum] | tuple[FourMomentum, ...],
    config: ShowerConfig,
    rng: np.random.Generator,
) -> tuple[Tree, float]:
    """Uniformly random legal action at every step."""
    state = reset(event)
    while not is_terminal(state):
        actions = action_table(state.n)
        state = step(state, actions[int(rng.integers(len(actions)))], config)
    return tree_from_state(state), state.cumulative_reward


def _rewards(state: ClusterState, config: ShowerConfig) -> list[float]:
    """The reward of every legal action, in legal-action order: one kernel
    call per pair (i, j), i < j, of state.particles."""
    # combinations() yields the pairs in legal-action order, and
    # tuple.__new__ builds each Splitting in C, skipping the NamedTuple's
    # Python-level __new__.  The kernel is looked up here, per call, so a
    # rebinding of this module's name is seen.
    splittings = map(tuple.__new__, repeat(Splitting), combinations(state.particles, 2))
    return list(map(splitting_log_likelihood, splittings, repeat(config)))


@ps_memo()
def cluster_greedy(
    event: list[FourMomentum] | tuple[FourMomentum, ...],
    config: ShowerConfig,
) -> tuple[Tree, float]:
    """Merge the pair with the maximum splitting likelihood at every step;
    ties go to the lexicographically smallest (i, j)."""
    state = reset(event)
    while not is_terminal(state):
        rewards = _rewards(state, config)
        best_reward = max(rewards)  # the first maximum, as index() finds it
        best_action = action_table(state.n)[rewards.index(best_reward)]
        state = apply_action(state, best_action, best_reward)
    return tree_from_state(state), state.cumulative_reward


# ---------------------------------------------------------------------------
# Beam search
# ---------------------------------------------------------------------------

@dataclass
class _BeamItem:
    state: ClusterState
    # (action, resulting state) per level, from the beam's start state.
    path: tuple[tuple[Action, ClusterState], ...]
    # The action index of each level of path.  Action indices follow the
    # actions' (i, j) order, so these tuples rank paths as their actions do.
    indices: tuple[int, ...]


def _beam_from_state(state: ClusterState, b: int, config: ShowerConfig) -> list[_BeamItem]:
    """Level-synchronous beam over partial clusterings ranked by cumulative
    log-likelihood, ties going to the smaller action path from `state`.
    States with identical partitions into leaf bitmasks are collapsed to
    the best-ranked representative, which is lossless because future
    rewards depend only on the current particle multiset.  Candidates are
    ranked before any state is built, and only the survivors are built.
    Returns the final beam (complete clusterings), best first."""
    if b < 1:
        raise ValueError(f"beam width must be >= 1, got {b}")
    items = [_BeamItem(state=state, path=(), indices=())]
    while items[0].state.n > 1:
        # A candidate's path is its parent's path plus its action, and the
        # parents' paths differ at one length, so candidates laid out in
        # (parent rank, action index) order are in path order; the sort is
        # stable, so candidates of equal total keep that order.
        by_path = sorted(items, key=attrgetter("indices"))
        rewards = [_rewards(item.state, config) for item in by_path]
        totals: list[float] = []
        for item, rs in zip(by_path, rewards):
            cum = item.state.cumulative_reward
            totals += [cum + r for r in rs]
        actions = action_table(items[0].state.n)
        m = len(actions)
        masks = [leaf_sets(item.state) for item in by_path]
        survivors: list[_BeamItem] = []
        seen: set[frozenset[int]] = set()
        for c in sorted(range(len(totals)), key=totals.__getitem__, reverse=True):
            h, k = divmod(c, m)
            action = actions[k]
            ls = masks[h]
            key = frozenset(merged(ls, action.i, action.j, ls[action.i] | ls[action.j]))
            if key in seen:
                continue
            seen.add(key)
            item = by_path[h]
            nxt = apply_action(item.state, action, rewards[h][k])
            survivors.append(_BeamItem(state=nxt, path=item.path + ((action, nxt),),
                                       indices=item.indices + (k,)))
            if len(survivors) == b:
                break
        items = survivors
    return items


@ps_memo()
def cluster_beam(
    event: list[FourMomentum] | tuple[FourMomentum, ...],
    b: int,
    config: ShowerConfig,
) -> tuple[Tree, float]:
    """Keep the b most likely partial clusterings per level; return the
    best complete one.  Width 1 reproduces cluster_greedy exactly."""
    final = _beam_from_state(reset(event), b, config)
    best = final[0].state
    return tree_from_state(best), best.cumulative_reward


# ---------------------------------------------------------------------------
# MCTS
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MctsConfig:
    """Search hyperparameters, and the one place their defaults live;
    making one with a field out of range raises ValueError naming it.
    beam_init_b is the width of the beam that seeds each decision's tree;
    0 turns seeding off.  final_rule is 'max-rollout' (pick the action
    whose subtree produced the single best roll-out) or 'puct-visits' (the
    ablation that picks the most visited action).  rollout_rule 'policy-sample'
    replaces the PUCT descent by sampling the prior (ablation)."""

    c: float = 1.0
    n_mcts: int = 10
    beam_init_b: int = 3
    final_rule: str = "max-rollout"
    rollout_rule: str = "puct"

    def __post_init__(self) -> None:
        c = self.c
        if isinstance(c, bool) or not isinstance(c, numbers.Real) or not math.isfinite(c) or c <= 0.0:
            raise ValueError(f"c, the exploration constant, must be a finite number > 0, got {c!r}")
        for name in ("n_mcts", "beam_init_b"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        if self.final_rule not in ("max-rollout", "puct-visits"):
            raise ValueError(f"unknown final_rule: {self.final_rule!r}")
        if self.rollout_rule not in ("puct", "policy-sample"):
            raise ValueError(f"unknown rollout_rule: {self.rollout_rule!r}")
        if self.n_mcts == 0 and self.beam_init_b == 0:
            raise ValueError("n_mcts=0 without beam initialization leaves nothing to decide from")


class SearchNode:
    """One state of the search tree with per-action visit statistics."""

    __slots__ = ("state", "actions", "priors", "n_visits",
                 "n_sa", "w_sa", "q", "best_return", "children")

    def __init__(self, state: ClusterState, policy: PriorPolicy):
        self.state = state
        self.actions = action_table(state.n)
        m = len(self.actions)
        self.priors = policy.priors(state) if m else np.zeros(0)
        self.n_visits = 0
        self.n_sa = np.zeros(m)  # whole counts, held as floats so 1 + N_sa needs no cast
        self.w_sa = np.zeros(m)
        self.q = np.empty(m)  # w_sa / n_sa, kept by _Search.backup; 0.5 while unvisited
        self.q.fill(0.5)
        self.best_return = np.empty(m)
        self.best_return.fill(-math.inf)
        self.children: list["SearchNode | None"] = [None] * m

    def puct_scores(self, c: float) -> np.ndarray:
        """Upper confidence bound Q + c * prior * sqrt(N_s) / (1 + N_sa) of
        every action.  An unvisited action's Q reads 0.5, neutral on the
        normalized scale."""
        # The operations of q + c * prior * sqrt(N_s) / (1 + N_sa), in
        # that order, on one buffer.  Addition and multiplication commute
        # bit for bit, so the array goes first, where numpy takes the
        # scalar without a reflected call.
        scores = self.priors * c
        scores *= math.sqrt(max(self.n_visits, 1))
        scores /= self.n_sa + 1.0
        scores += self.q
        return scores


class _Search:
    """One MCTS episode: the prior, the search settings, the density and
    the rng its decisions share, and the range [lo, hi] of the returns it
    has backed up, which maps each return to a weight in [0, 1]."""

    def __init__(self, policy: PriorPolicy, cfg: MctsConfig, config: ShowerConfig,
                 rng: np.random.Generator):
        self.policy = policy
        self.cfg = cfg
        self.config = config
        self.rng = rng
        self.lo = math.inf
        self.hi = -math.inf

    def child(self, node: SearchNode, k: int, state: ClusterState | None = None) -> SearchNode:
        child = node.children[k]
        if child is None:
            if state is None:
                state = step(node.state, node.actions[k], self.config)
            child = SearchNode(state, self.policy)
            node.children[k] = child
        return child

    def backup(self, path: list[tuple[SearchNode, int]], ret: float) -> None:
        # ret lies in [lo, hi] once added, so its weight needs no clamp;
        # 0.5 while the range is degenerate.
        self.lo = lo = min(self.lo, ret)
        self.hi = hi = max(self.hi, ret)
        w = (ret - lo) / (hi - lo) if hi > lo else 0.5
        for node, k in path:
            node.n_visits += 1
            n_sa, w_sa, best_return = node.n_sa, node.w_sa, node.best_return
            n = n_sa[k] + 1.0
            total = w_sa[k] + w
            n_sa[k] = n
            w_sa[k] = total
            node.q[k] = total / n
            if ret > best_return[k]:
                best_return[k] = ret

    def seed(self, root: SearchNode) -> None:
        for item in _beam_from_state(root.state, self.cfg.beam_init_b, self.config):
            node = root
            path: list[tuple[SearchNode, int]] = []
            for k, (_, state_after) in zip(item.indices, item.path):
                path.append((node, k))
                node = self.child(node, k, state_after)
            self.backup(path, item.state.cumulative_reward)

    def rollout(self, root: SearchNode) -> None:
        c = self.cfg.c
        sample = self.cfg.rollout_rule == "policy-sample"
        node = root
        path: list[tuple[SearchNode, int]] = []
        while not is_terminal(node.state):
            if sample:
                priors = node.priors
                k = int(self.rng.choice(len(node.actions), p=priors / priors.sum()))
            else:
                k = int(node.puct_scores(c).argmax())
            path.append((node, k))
            child = node.children[k]
            node = child if child is not None else self.child(node, k)
        self.backup(path, node.state.cumulative_reward)

    def decide(self, root: SearchNode) -> int:
        cfg = self.cfg
        if cfg.beam_init_b > 0:
            self.seed(root)
        for _ in range(cfg.n_mcts):
            self.rollout(root)
        if cfg.final_rule == "puct-visits":
            return int(root.n_sa.argmax())
        return int(root.best_return.argmax())


@ps_memo()
def cluster_mcts(
    event: list[FourMomentum] | tuple[FourMomentum, ...],
    policy: PriorPolicy,
    cfg: MctsConfig,
    config: ShowerConfig,
    rng: np.random.Generator,
) -> tuple[Tree, float, list[tuple[ClusterState, int]]]:
    """Run MCTS decisions until the clustering is complete, reusing the
    chosen child's subtree (and the range of returns) between decisions.
    Each decision seeds the tree with beam-search trajectories, runs the
    PUCT roll-outs to termination and takes the action behind the best
    roll-out (or the most visited one under the puct-visits ablation).
    Also returns each decision as (state, index of the chosen action),
    which policy self-imitation trains on."""
    root = SearchNode(reset(event), policy)
    search = _Search(policy, cfg, config, rng)
    decisions: list[tuple[ClusterState, int]] = []
    while not is_terminal(root.state):
        k = search.decide(root)
        decisions.append((root.state, k))
        root = search.child(root, k)
    return tree_from_state(root.state), root.state.cumulative_reward, decisions


@ps_memo()
def cluster_policy(
    event: list[FourMomentum] | tuple[FourMomentum, ...],
    policy: PriorPolicy,
    config: ShowerConfig,
) -> tuple[Tree, float]:
    """Roll out the policy directly, taking its argmax action each step."""
    state = reset(event)
    while not is_terminal(state):
        k = int(np.argmax(policy.priors(state)))
        state = step(state, action_table(state.n)[k], config)
    return tree_from_state(state), state.cumulative_reward
