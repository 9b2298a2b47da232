"""Learnable merge prior: a small per-pair feed-forward scorer with
exact hand-written gradients, plus the imitation training loops.

The same two-hidden-layer network scores every candidate pair, and a
softmax across the legal pairs of a state turns the scores into a
distribution.  Sharing the weights across pairs handles any particle
count with one parameter set and keeps the output permutation
equivariant.  Training is plain SGD with gradient-norm clipping.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .env import Action, ClusterState, action_table, is_terminal, leaf_sets, reset, step
from .features import (
    FEATURE_SCHEMA_VERSION,
    N_BASE_FEATURES,
    N_PARTICLES_COLUMN,
    extract_pair_features,
    feature_dim,
)
from .planners import MctsConfig, cluster_mcts
from .shower import ShowerConfig, Tree
from .trellis import exact_mle

HIDDEN_WIDTH = 64
GRAD_CLIP_NORM = 10.0

WEIGHTS_MAGIC = "jetclust-weights"
WEIGHTS_FORMAT_VERSION = 1


@dataclass
class PolicyWeights:
    w1: np.ndarray  # (d, H)
    b1: np.ndarray  # (H,)
    w2: np.ndarray  # (H, H)
    b2: np.ndarray  # (H,)
    w3: np.ndarray  # (H,)
    b3: np.ndarray  # ()

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]


@dataclass(frozen=True)
class Demonstration:
    """Features of one state plus the indices of all correct actions."""

    features: np.ndarray  # (m, d)
    targets: tuple[int, ...]

    def validate(self) -> None:
        if not self.targets:
            raise ValueError("demonstration needs at least one target action")
        m = self.features.shape[0]
        if any(not (0 <= k < m) for k in self.targets):
            raise ValueError("target indices out of range")


def init_weights(input_dim: int, rng: np.random.Generator) -> PolicyWeights:
    def dense(n_in, n_out):
        return rng.normal(0.0, 1.0 / math.sqrt(n_in), size=(n_in, n_out))

    return PolicyWeights(
        w1=dense(input_dim, HIDDEN_WIDTH),
        b1=np.zeros(HIDDEN_WIDTH),
        w2=dense(HIDDEN_WIDTH, HIDDEN_WIDTH),
        b2=np.zeros(HIDDEN_WIDTH),
        w3=dense(HIDDEN_WIDTH, 1)[:, 0],
        b3=np.zeros(()),
    )


def _condition_inputs(x: np.ndarray) -> np.ndarray:
    """Fixed input conditioning so raw features cannot saturate the tanh
    layers: the particle count is rescaled and the log-density column is
    clipped (it can sit at the out-of-support floor) and rescaled.  The
    momentum and mass columns are already O(1)."""
    x = x.copy()
    x[:, N_PARTICLES_COLUMN] *= 0.05
    if x.shape[1] > N_BASE_FEATURES:
        x[:, N_BASE_FEATURES] = np.clip(x[:, N_BASE_FEATURES], -100.0, 100.0) * 0.1
    return x


def _forward(w: PolicyWeights, x: np.ndarray):
    x = _condition_inputs(x)
    h1 = np.tanh(x @ w.w1 + w.b1)
    h2 = np.tanh(h1 @ w.w2 + w.b2)
    logits = h2 @ w.w3 + w.b3
    shifted = np.exp(logits - logits.max())
    probs = shifted / math.fsum(shifted.tolist())  # order-independent normalizer
    return probs, logits, h1, h2, x


def policy_forward(w: PolicyWeights, state: ClusterState, config: ShowerConfig,
                   include_ps: bool = True) -> np.ndarray:
    """Distribution over the legal actions of a non-terminal state."""
    if is_terminal(state):
        raise ValueError("terminal state has no actions")
    x = extract_pair_features(state, config, include_ps=include_ps)
    return _forward(w, x)[0]


def policy_loss_and_grad(w: PolicyWeights, demo: Demonstration) -> tuple[float, PolicyWeights]:
    """Cross-entropy against the target set, loss = -log sum_{a in T} pi(a),
    with the exact reverse-mode gradient."""
    demo.validate()
    probs, logits, h1, h2, x = _forward(w, demo.features)
    t_mask = np.zeros(len(probs))
    t_mask[list(demo.targets)] = 1.0

    # Numerically stable -log q via log-sum-exp of the target logits.
    zmax = logits.max()
    log_q = math.log(math.fsum(np.exp(logits[list(demo.targets)] - zmax).tolist())) \
        - math.log(math.fsum(np.exp(logits - zmax).tolist()))
    loss = -log_q

    q = max(probs[list(demo.targets)].sum(), 1e-300)
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
    return loss, PolicyWeights(w1=dw1, b1=db1, w2=dw2, b2=db2, w3=dw3, b3=db3)


def flatten_weights(w: PolicyWeights) -> np.ndarray:
    return np.concatenate([a.ravel() for a in w.arrays()])


def unflatten_weights(vec: np.ndarray, template: PolicyWeights) -> PolicyWeights:
    arrays = []
    offset = 0
    for a in template.arrays():
        arrays.append(vec[offset:offset + a.size].reshape(a.shape).copy())
        offset += a.size
    return PolicyWeights(*arrays)


def _sgd_update(w: PolicyWeights, grad: PolicyWeights, lr: float) -> None:
    norm = math.sqrt(sum(float(np.sum(g * g)) for g in grad.arrays()))
    scale = lr if norm <= GRAD_CLIP_NORM else lr * GRAD_CLIP_NORM / norm
    for target, g in zip(w.arrays(), grad.arrays()):
        target -= scale * g


class NeuralPolicy:
    """PriorPolicy adapter around a weight set."""

    def __init__(self, weights: PolicyWeights, config: ShowerConfig, include_ps: bool = True):
        if weights.input_dim != feature_dim(include_ps):
            raise ValueError(
                f"weights expect input dim {weights.input_dim}, "
                f"features produce {feature_dim(include_ps)}")
        self.weights = weights
        self.config = config
        self.include_ps = include_ps

    def priors(self, state: ClusterState) -> np.ndarray:
        return policy_forward(self.weights, state, self.config, include_ps=self.include_ps)


# ---------------------------------------------------------------------------
# Demonstrations
# ---------------------------------------------------------------------------

def _sibling_pairs(tree: Tree) -> set[frozenset[frozenset[int]]]:
    """For every internal node, the pair of leaf-position sets spanned by
    its two children.  Leaf positions index tree.leaf_indices, matching
    the particle ids of a state reset from the tree's leaves."""
    position = {node_idx: pos for pos, node_idx in enumerate(tree.leaf_indices)}
    desc: dict[int, frozenset[int]] = {}

    def fill(idx: int) -> frozenset[int]:
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


def truth_actions(state: ClusterState, tree: Tree) -> list[Action]:
    """All pairs whose merged leaf sets form a sibling pair of the
    demonstrator tree; empty when the state has drifted off the tree
    (callers skip such samples)."""
    return _actions_in(state, _sibling_pairs(tree))


def _actions_in(state: ClusterState, pairs: set[frozenset[frozenset[int]]]) -> list[Action]:
    """truth_actions given the tree's _sibling_pairs, which an episode
    along one tree computes once."""
    sets = leaf_sets(state)
    return [
        a for a in action_table(state.n)[0]
        if frozenset((sets[a.i], sets[a.j])) in pairs
    ]


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

MLE_DEMONSTRATOR_MAX_N = 10


def _demonstrator_tree(event, demonstrator: str, config: ShowerConfig, cache: dict) -> Tree:
    if demonstrator == "truth":
        return event.truth
    if demonstrator == "mle-for-small-n":
        if len(event.leaves) > MLE_DEMONSTRATOR_MAX_N:
            return event.truth
        if event.event_id not in cache:
            cache[event.event_id] = exact_mle(event.leaves, config)[1]
        return cache[event.event_id]
    raise ValueError(f"unknown demonstrator: {demonstrator!r}")


def train_bc(
    dataset: Sequence,
    config: ShowerConfig,
    steps: int,
    lr: float,
    rng: np.random.Generator,
    demonstrator: str = "truth",
    include_ps: bool = True,
) -> tuple[PolicyWeights, list[float]]:
    """Behavioral cloning on demonstrator merges.  Each step consumes one
    demonstrated decision: replay an episode along the demonstrator tree,
    resolving ties between available sibling pairs uniformly at random,
    then take a gradient step on every visited state in order.  Dataset
    items need .event_id, .leaves and .truth attributes."""
    if not dataset:
        raise ValueError("dataset is empty")
    weights = init_weights(feature_dim(include_ps), rng)
    losses: list[float] = []
    mle_cache: dict = {}
    while len(losses) < steps:
        for ev_idx in rng.permutation(len(dataset)):
            event = dataset[int(ev_idx)]
            tree = _demonstrator_tree(event, demonstrator, config, mle_cache)
            pairs = _sibling_pairs(tree)
            state = reset(event.leaves)
            states: list[ClusterState] = []
            targets: list[tuple[int, ...]] = []
            while not is_terminal(state) and len(losses) + len(states) < steps:
                actions = _actions_in(state, pairs)
                if not actions:
                    break  # off-demonstration state, skip the rest
                index = action_table(state.n)[1]
                states.append(state)
                targets.append(tuple(index[a] for a in actions))
                chosen = actions[int(rng.integers(len(actions)))]
                state = step(state, chosen, config).next_state
            _fit_episode(weights, states, targets, config, include_ps, lr, losses)
            if len(losses) >= steps:
                break
    return weights, losses


def _fit_episode(weights: PolicyWeights, states: list[ClusterState], targets: list[tuple[int, ...]],
                 config: ShowerConfig, include_ps: bool, lr: float, losses: list[float]) -> None:
    """One SGD step per demonstrated state, in episode order, on features
    extracted for all of the episode's states in one call."""
    if not states:
        return
    x = extract_pair_features(states, config, include_ps=include_ps)
    end = 0
    for state, t in zip(states, targets):
        start, end = end, end + state.n * (state.n - 1) // 2
        loss, grad = policy_loss_and_grad(weights, Demonstration(x[start:end], t))
        _sgd_update(weights, grad, lr)
        losses.append(loss)


def train_mcts_policy(
    dataset: Sequence,
    cfg: MctsConfig,
    config: ShowerConfig,
    steps: int,
    lr: float,
    rng: np.random.Generator,
    init: PolicyWeights | None = None,
    include_ps: bool = True,
) -> tuple[PolicyWeights, list[float]]:
    """Self-imitation of MCTS decisions: run guided episodes, then fit the
    policy to the chosen actions.  One step is one environment decision.
    `init` continues from pretrained (e.g. BC) weights."""
    if not dataset:
        raise ValueError("dataset is empty")
    if init is None:
        weights = init_weights(feature_dim(include_ps), rng)
    else:
        weights = PolicyWeights(*[a.copy() for a in init.arrays()])
    policy = NeuralPolicy(weights, config, include_ps=include_ps)
    losses: list[float] = []
    while len(losses) < steps:
        for ev_idx in rng.permutation(len(dataset)):
            event = dataset[int(ev_idx)]
            _, _, decisions = cluster_mcts(event.leaves, policy, cfg, config, rng)
            decisions = decisions[:steps - len(losses)]
            _fit_episode(weights, [state for state, _ in decisions], [(k,) for _, k in decisions],
                         config, include_ps, lr, losses)
            if len(losses) >= steps:
                break
    return weights, losses


# ---------------------------------------------------------------------------
# Serialization: one JSON header line, then raw little-endian float64
# ---------------------------------------------------------------------------

def save_weights(path: str | Path, w: PolicyWeights, include_ps: bool = True,
                 config_hash: str | None = None) -> None:
    header = {
        "magic": WEIGHTS_MAGIC,
        "version": WEIGHTS_FORMAT_VERSION,
        "feature_schema": FEATURE_SCHEMA_VERSION,
        "include_ps": include_ps,
        "config_hash": config_hash,
        "shapes": [list(a.shape) for a in w.arrays()],
        "dtype": "<f8",
    }
    payload = np.concatenate([np.ascontiguousarray(a, dtype="<f8").ravel() for a in w.arrays()])
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode() + b"\n")
        f.write(payload.tobytes())


def _weight_shapes(input_dim: int) -> list[list[int]]:
    """The shapes of w1, b1, w2, b2, w3 and b3, as a weights header lists them."""
    h = HIDDEN_WIDTH
    return [[input_dim, h], [h], [h, h], [h], [h], []]


def load_weights(path: str | Path) -> tuple[PolicyWeights, dict]:
    with open(path, "rb") as f:
        try:
            header = json.loads(f.readline().decode())
        except ValueError:
            raise ValueError(f"{path}: not a weights file") from None
        if not isinstance(header, dict) or header.get("magic") != WEIGHTS_MAGIC:
            raise ValueError(f"{path}: not a weights file")
        if header.get("version") != WEIGHTS_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported weights format version {header.get('version')}")
        if header.get("feature_schema") != FEATURE_SCHEMA_VERSION:
            raise ValueError(f"{path}: feature schema {header.get('feature_schema')!r}, "
                             f"this version reads {FEATURE_SCHEMA_VERSION}")
        if "shapes" not in header:
            raise ValueError(f"{path}: weights header has no 'shapes' field")
        if header["shapes"] not in (_weight_shapes(feature_dim(True)), _weight_shapes(feature_dim(False))):
            raise ValueError(f"{path}: weights header shapes {header['shapes']!r} are not "
                             f"this network's")
        payload = f.read()
    sizes = [math.prod(shape) for shape in header["shapes"]]
    if len(payload) != 8 * sum(sizes):
        raise ValueError(f"{path}: payload of {len(payload)} bytes, the header's shapes "
                         f"need {8 * sum(sizes)} (8 per float64 weight); the file is truncated "
                         f"or was not written by save_weights")
    flat = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(flat).all():
        raise ValueError(f"{path}: {int(np.count_nonzero(~np.isfinite(flat)))} of {flat.size} "
                         f"weights are not finite")
    arrays = []
    offset = 0
    for shape, size in zip(header["shapes"], sizes):
        arrays.append(flat[offset:offset + size].reshape(shape).copy())
        offset += size
    return PolicyWeights(*arrays), header
