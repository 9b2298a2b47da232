"""Learnable merge prior: a small per-pair feed-forward scorer with
exact hand-written gradients, plus the imitation training loops.

The same two-hidden-layer network scores every candidate pair, and a
softmax across the legal pairs of a state turns the scores into a
distribution.  Sharing the weights across pairs handles any particle
count with one parameter set and keeps the output permutation
equivariant.  Training is plain SGD with gradient-norm clipping.
"""

import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .env import Action, ClusterState, action_table, is_terminal, leaf_sets, merged, reset, step
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
    """Softmax over the rows of raw features x, plus what the backward
    pass reuses: exp(logits - max logit), its sum, both hidden layers and
    the conditioned inputs."""
    x = _condition_inputs(x)
    h1 = x @ w.w1
    h1 += w.b1
    np.tanh(h1, out=h1)
    h2 = h1 @ w.w2
    h2 += w.b2
    np.tanh(h2, out=h2)
    logits = h2 @ w.w3
    logits += w.b3
    shifted = np.exp(logits - logits.max())
    total = math.fsum(shifted.tolist())  # order-independent normalizer
    return shifted / total, shifted, total, h1, h2, x


def policy_forward(w: PolicyWeights, state: ClusterState, config: ShowerConfig,
                   include_ps: bool = True) -> np.ndarray:
    """Distribution over the legal actions of a non-terminal state."""
    if is_terminal(state):
        raise ValueError("terminal state has no actions")
    x = extract_pair_features(state, config, include_ps=include_ps)
    return _forward(w, x)[0]


def policy_loss_and_grad(w: PolicyWeights, demo: Demonstration,
                         out: PolicyWeights | None = None) -> tuple[float, PolicyWeights]:
    """Cross-entropy against the target set, loss = -log sum_{a in T} pi(a),
    with the exact reverse-mode gradient.  The gradient is written into
    `out` (arrays of w's shapes) when given, else into new arrays."""
    demo.validate()
    probs, shifted, total, h1, h2, x = _forward(w, demo.features)
    targets = list(demo.targets)

    # Numerically stable -log q: the target and total sums of exp(logits - max).
    loss = -(math.log(math.fsum(shifted[targets].tolist())) - math.log(total))

    g = _weights_on(np.empty(sum(a.size for a in w.arrays())), _shapes(w)) if out is None else out
    # dlogits = probs - probs * [a in T] / q, which changes only the target rows.
    p_t = probs[targets]
    q = max(p_t.sum(), 1e-300)
    dlogits = probs
    dlogits[targets] = p_t - p_t / q
    np.matmul(h2.T, dlogits, out=g.w3)
    np.add.reduce(dlogits, axis=0, out=g.b3)
    dz2 = dlogits[:, None] * w.w3
    h2 *= h2
    dz2 *= np.subtract(1.0, h2, out=h2)
    np.matmul(h1.T, dz2, out=g.w2)
    np.add.reduce(dz2, axis=0, out=g.b2)
    dz1 = dz2 @ w.w2.T
    h1 *= h1
    dz1 *= np.subtract(1.0, h1, out=h1)
    np.matmul(x.T, dz1, out=g.w1)
    np.add.reduce(dz1, axis=0, out=g.b1)
    return loss, g


def _shapes(w: PolicyWeights) -> list[tuple[int, ...]]:
    return [a.shape for a in w.arrays()]


def _weights_on(flat: np.ndarray, shapes) -> PolicyWeights:
    """PolicyWeights whose arrays are views of consecutive slices of flat."""
    arrays = []
    offset = 0
    for shape in shapes:
        size = math.prod(shape)
        arrays.append(flat[offset:offset + size].reshape(shape))
        offset += size
    return PolicyWeights(*arrays)


def flatten_weights(w: PolicyWeights) -> np.ndarray:
    return np.concatenate([a.ravel() for a in w.arrays()])


def unflatten_weights(vec: np.ndarray, template: PolicyWeights) -> PolicyWeights:
    return _weights_on(vec.copy(), _shapes(template))


@dataclass
class _FlatParams:
    """Trainable weights and their gradient, each one flat vector that
    PolicyWeights views slice up: the backward pass writes the gradient
    views, and an SGD update works on the two vectors whole."""

    theta: np.ndarray
    grad: np.ndarray
    weights: PolicyWeights  # views of theta
    grad_views: PolicyWeights  # views of grad
    bounds: list[tuple[int, int]]  # each array's slice of the vectors

    @classmethod
    def copy_of(cls, w: PolicyWeights) -> "_FlatParams":
        theta = flatten_weights(w)
        grad = np.empty_like(theta)
        ends = list(itertools.accumulate(a.size for a in w.arrays()))
        return cls(theta, grad, _weights_on(theta, _shapes(w)), _weights_on(grad, _shapes(w)),
                   list(zip([0] + ends[:-1], ends)))

    def sgd_update(self, lr: float) -> None:
        """theta -= lr * grad, the gradient clipped to norm GRAD_CLIP_NORM
        (grad is scaled in place).  The squared norm adds each array's
        sum of squares in array order, which fixes its bits."""
        sq = self.grad * self.grad
        norm = math.sqrt(sum(float(np.add.reduce(sq[a:b])) for a, b in self.bounds))
        scale = lr if norm <= GRAD_CLIP_NORM else lr * GRAD_CLIP_NORM / norm
        self.grad *= scale
        self.theta -= self.grad


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

def _sibling_map(tree: Tree) -> dict[int, int]:
    """For every node below the root, its leaf bitmask mapped to its
    sibling's.  Bit k stands for the leaf at tree.leaf_indices[k], which
    is particle id k of a state reset from the tree's leaves."""
    position = {node_idx: pos for pos, node_idx in enumerate(tree.leaf_indices)}
    desc: dict[int, int] = {}

    def fill(idx: int) -> int:
        node = tree.nodes[idx]
        if node.children is None:
            out = 1 << position[idx]
        else:
            out = fill(node.children[0]) | fill(node.children[1])
        desc[idx] = out
        return out

    fill(tree.root_index)
    sibling = {}
    for idx in tree.internal_indices():
        ca, cb = tree.nodes[idx].children
        sibling[desc[ca]] = desc[cb]
        sibling[desc[cb]] = desc[ca]
    return sibling


def _demonstrated(sets: Sequence[int], sibling: dict[int, int]) -> tuple[int, ...]:
    """Legal-action indices, in legal-action order, of the pairs of
    clusters that are siblings in the demonstrator tree, given each
    cluster's leaf bitmask and the tree's _sibling_map.  A cluster has at
    most one sibling, so this is one lookup per cluster."""
    n = len(sets)
    where = {s: k for k, s in enumerate(sets)}
    out = []
    for i, s in enumerate(sets):
        j = where.get(sibling.get(s))
        if j is not None and j > i:
            out.append(i * (2 * n - i - 3) // 2 + j - 1)  # position of Action(i, j)
    return tuple(out)


def truth_actions(state: ClusterState, tree: Tree) -> list[Action]:
    """All pairs whose merged leaf sets form a sibling pair of the
    demonstrator tree; empty when the state has drifted off the tree
    (callers skip such samples)."""
    actions = action_table(state.n)[0]
    return [actions[k] for k in _demonstrated(leaf_sets(state), _sibling_map(tree))]


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
    items need .event_id, .leaves and .truth attributes.  The returned
    weights are views of the one flat vector that the steps update."""
    if not dataset:
        raise ValueError("dataset is empty")
    params = _FlatParams.copy_of(init_weights(feature_dim(include_ps), rng))
    losses: list[float] = []
    mle_cache: dict = {}
    while len(losses) < steps:
        for ev_idx in rng.permutation(len(dataset)):
            event = dataset[int(ev_idx)]
            sibling = _sibling_map(_demonstrator_tree(event, demonstrator, config, mle_cache))
            state = reset(event.leaves)
            sets = tuple(1 << k for k in range(state.n))  # leaf bitmask per cluster
            states: list[ClusterState] = []
            targets: list[tuple[int, ...]] = []
            while not is_terminal(state) and len(losses) + len(states) < steps:
                t = _demonstrated(sets, sibling)
                if not t:
                    break  # off-demonstration state, skip the rest
                states.append(state)
                targets.append(t)
                chosen = action_table(state.n)[0][t[int(rng.integers(len(t)))]]
                state = step(state, chosen, config)
                sets = merged(sets, chosen.i, chosen.j, sets[chosen.i] | sets[chosen.j])
            _fit_episode(params, states, targets, config, include_ps, lr, losses)
            if len(losses) >= steps:
                break
    return params.weights, losses


def _fit_episode(params: _FlatParams, states: list[ClusterState], targets: list[tuple[int, ...]],
                 config: ShowerConfig, include_ps: bool, lr: float, losses: list[float]) -> None:
    """One SGD step per demonstrated state, in episode order, on features
    extracted for all of the episode's states in one call."""
    if not states:
        return
    x = extract_pair_features(states, config, include_ps=include_ps)
    end = 0
    for state, t in zip(states, targets):
        start, end = end, end + state.n * (state.n - 1) // 2
        loss, _ = policy_loss_and_grad(params.weights, Demonstration(x[start:end], t), params.grad_views)
        params.sgd_update(lr)
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
    `init` continues from pretrained (e.g. BC) weights; it is copied, not
    changed.  The MCTS prior reads the weights that the steps update."""
    if not dataset:
        raise ValueError("dataset is empty")
    params = _FlatParams.copy_of(init_weights(feature_dim(include_ps), rng) if init is None else init)
    policy = NeuralPolicy(params.weights, config, include_ps=include_ps)
    losses: list[float] = []
    while len(losses) < steps:
        for ev_idx in rng.permutation(len(dataset)):
            event = dataset[int(ev_idx)]
            _, _, decisions = cluster_mcts(event.leaves, policy, cfg, config, rng)
            decisions = decisions[:steps - len(losses)]
            _fit_episode(params, [state for state, _ in decisions], [(k,) for _, k in decisions],
                         config, include_ps, lr, losses)
            if len(losses) >= steps:
                break
    return params.weights, losses


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
    return _weights_on(flat.copy(), header["shapes"]), header
