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
from dataclasses import dataclass
from itertools import combinations, repeat
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
    return z / math.fsum(z)


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
        actions = action_table(state.n)[0]
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
        best_action = action_table(state.n)[0][rewards.index(best_reward)]
        state = apply_action(state, best_action, best_reward)
    return tree_from_state(state), state.cumulative_reward


# ---------------------------------------------------------------------------
# Beam search
# ---------------------------------------------------------------------------

@dataclass
class _BeamItem:
    state: ClusterState
    leafsets: tuple[int, ...]  # each cluster's leaf bitmask
    # (action, resulting state) per level, from the beam's start state.
    path: tuple[tuple[Action, ClusterState], ...]


def _beam_from_state(state: ClusterState, b: int, config: ShowerConfig) -> list[_BeamItem]:
    """Level-synchronous beam over partial clusterings ranked by cumulative
    log-likelihood, ties going to the smaller merge history.  States with
    identical partitions into leaf bitmasks are collapsed to the best-ranked
    representative, which is lossless because future rewards depend only
    on the current particle multiset.  Candidates are ranked before any
    state is built, and only the survivors are built.  Returns the final
    beam (complete clusterings), best first."""
    if b < 1:
        raise ValueError(f"beam width must be >= 1, got {b}")
    items = [_BeamItem(state=state, leafsets=leaf_sets(state), path=())]
    while items[0].state.n > 1:
        # A candidate's own history is its parent's history plus the new
        # entry (ids[i], ids[j]).  Every item of a level has a history of
        # the same length, and no two share one, so ranking the parents by
        # history orders them as the candidates' histories would.  A
        # state's ids increase strictly, so within one parent the entries
        # order as the action indices do.  Candidates are laid out in
        # (parent rank, action index) order, and the sort is stable, so
        # candidates of equal total keep that order.
        by_history = sorted(items, key=lambda item: item.state.history)
        rewards = [_rewards(item.state, config) for item in by_history]
        totals: list[float] = []
        for item, rs in zip(by_history, rewards):
            cum = item.state.cumulative_reward
            totals += [cum + r for r in rs]
        actions = action_table(items[0].state.n)[0]
        m = len(actions)
        survivors: list[_BeamItem] = []
        seen: set[frozenset[int]] = set()
        for c in sorted(range(len(totals)), key=totals.__getitem__, reverse=True):
            h, k = divmod(c, m)
            item = by_history[h]
            action = actions[k]
            ls = item.leafsets
            nls = merged(ls, action.i, action.j, ls[action.i] | ls[action.j])
            key = frozenset(nls)
            if key in seen:
                continue
            seen.add(key)
            nxt = apply_action(item.state, action, rewards[h][k])
            survivors.append(_BeamItem(state=nxt, leafsets=nls, path=item.path + ((action, nxt),)))
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

@dataclass
class MctsConfig:
    """Search hyperparameters, and the one place their defaults live.
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

    def validate(self) -> None:
        if self.c <= 0.0:
            raise ValueError(f"exploration constant must be > 0, got {self.c}")
        if self.n_mcts < 0 or self.beam_init_b < 0:
            raise ValueError("n_mcts and beam_init_b must be non-negative")
        if self.final_rule not in ("max-rollout", "puct-visits"):
            raise ValueError(f"unknown final_rule: {self.final_rule!r}")
        if self.rollout_rule not in ("puct", "policy-sample"):
            raise ValueError(f"unknown rollout_rule: {self.rollout_rule!r}")
        if self.n_mcts == 0 and self.beam_init_b == 0:
            raise ValueError("n_mcts=0 without beam initialization leaves nothing to decide from")


class SearchNode:
    """One state of the search tree with per-action visit statistics."""

    __slots__ = ("state", "actions", "action_index", "priors", "n_visits",
                 "n_sa", "w_sa", "q", "best_return", "children")

    def __init__(self, state: ClusterState, policy: PriorPolicy):
        self.state = state
        self.actions, self.action_index = action_table(state.n)
        m = len(self.actions)
        self.priors = policy.priors(state) if m else np.zeros(0)
        self.n_visits = 0
        self.n_sa = np.zeros(m)  # whole counts, held as floats so 1 + N_sa needs no cast
        self.w_sa = np.zeros(m)
        self.q = np.full(m, 0.5)  # w_sa / n_sa, kept by _backup; 0.5 while unvisited
        self.best_return = np.full(m, -np.inf)
        self.children: list["SearchNode | None"] = [None] * m

    def puct_scores(self, c: float) -> np.ndarray:
        """Upper confidence bound Q + c * prior * sqrt(N_s) / (1 + N_sa) of
        every action.  An unvisited action's Q reads 0.5, neutral on the
        normalized scale."""
        # The operations of q + c * prior * sqrt(N_s) / (1 + N_sa), in
        # that order, on one buffer (addition commutes bit for bit).
        scores = c * self.priors
        scores *= math.sqrt(max(self.n_visits, 1))
        scores /= 1.0 + self.n_sa
        scores += self.q
        return scores


@dataclass
class ReturnNormalizer:
    """Maps raw episode returns to [0, 1] by the running min/max observed
    in the current search; 0.5 while the range is degenerate."""

    lo: float = math.inf
    hi: float = -math.inf

    def update(self, value: float) -> None:
        self.lo = min(self.lo, value)
        self.hi = max(self.hi, value)

    def normalize(self, value: float) -> float:
        if not (self.hi > self.lo):
            return 0.5
        return min(max((value - self.lo) / (self.hi - self.lo), 0.0), 1.0)


def _backup(path: list[tuple[SearchNode, int]], ret: float, normalizer: ReturnNormalizer) -> None:
    normalizer.update(ret)
    w = normalizer.normalize(ret)
    for node, k in path:
        node.n_visits += 1
        node.n_sa[k] += 1
        node.w_sa[k] += w
        node.q[k] = node.w_sa[k] / node.n_sa[k]
        if ret > node.best_return[k]:
            node.best_return[k] = ret


def _ensure_child(node: SearchNode, k: int, policy: PriorPolicy, config: ShowerConfig,
                  state: ClusterState | None = None) -> SearchNode:
    child = node.children[k]
    if child is None:
        if state is None:
            state = step(node.state, node.actions[k], config)
        child = SearchNode(state, policy)
        node.children[k] = child
    return child


def _insert_beam_trajectories(
    root: SearchNode,
    policy: PriorPolicy,
    cfg: MctsConfig,
    config: ShowerConfig,
    normalizer: ReturnNormalizer,
) -> None:
    for item in _beam_from_state(root.state, cfg.beam_init_b, config):
        node = root
        path: list[tuple[SearchNode, int]] = []
        for action, state_after in item.path:
            k = node.action_index[action]
            path.append((node, k))
            node = _ensure_child(node, k, policy, config, state=state_after)
        _backup(path, item.state.cumulative_reward, normalizer)


def _run_rollout(
    root: SearchNode,
    policy: PriorPolicy,
    cfg: MctsConfig,
    config: ShowerConfig,
    rng: np.random.Generator,
    normalizer: ReturnNormalizer,
) -> None:
    node = root
    path: list[tuple[SearchNode, int]] = []
    while not is_terminal(node.state):
        if cfg.rollout_rule == "policy-sample":
            k = int(rng.choice(len(node.actions), p=node.priors / node.priors.sum()))
        else:
            k = int(node.puct_scores(cfg.c).argmax())
        path.append((node, k))
        node = _ensure_child(node, k, policy, config)
    _backup(path, node.state.cumulative_reward, normalizer)


def _decide(
    root: SearchNode,
    policy: PriorPolicy,
    cfg: MctsConfig,
    config: ShowerConfig,
    rng: np.random.Generator,
    normalizer: ReturnNormalizer,
) -> int:
    if cfg.beam_init_b > 0:
        _insert_beam_trajectories(root, policy, cfg, config, normalizer)
    for _ in range(cfg.n_mcts):
        _run_rollout(root, policy, cfg, config, rng, normalizer)
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
    chosen child's subtree (and the return normalizer) between decisions.
    Each decision seeds the tree with beam-search trajectories, runs the
    PUCT roll-outs to termination and takes the action behind the best
    roll-out (or the most visited one under the puct-visits ablation).
    Also returns each decision as (state, index of the chosen action),
    which policy self-imitation trains on."""
    cfg.validate()
    root = SearchNode(reset(event), policy)
    normalizer = ReturnNormalizer()
    decisions: list[tuple[ClusterState, int]] = []
    while not is_terminal(root.state):
        k = _decide(root, policy, cfg, config, rng, normalizer)
        decisions.append((root.state, k))
        root = _ensure_child(root, k, policy, config)
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
        state = step(state, action_table(state.n)[0][k], config)
    return tree_from_state(state), state.cumulative_reward
