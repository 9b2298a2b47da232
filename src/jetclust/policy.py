"""Learnable merge prior: a small per-pair feed-forward scorer with
exact hand-written gradients, plus the imitation training loop.

The same two-hidden-layer network scores every candidate pair, and a
softmax across the legal pairs of a state turns the scores into a
distribution.  Sharing the weights across pairs handles any particle
count with one parameter set and keeps the output permutation
equivariant.  Training is plain SGD with gradient-norm clipping.
"""

import json
import math
import reprlib
from pathlib import Path
from typing import Sequence

import numpy as np

from .env import Action, ClusterState, action_table, is_terminal, leaf_sets, reset, step
from .features import FEATURE_SCHEMA_VERSION, extract_pair_features, feature_dim
from .planners import MctsConfig, cluster_mcts
from .shower import ShowerConfig, Tree
from .trellis import exact_mle

HIDDEN_WIDTH = 64
GRAD_CLIP_NORM = 10.0

WEIGHTS_MAGIC = "jetclust-weights"
WEIGHTS_FORMAT_VERSION = 1


def weight_shapes(input_dim: int) -> list[list[int]]:
    """The shapes of w1, b1, w2, b2, w3 and b3, in their order in the
    flat weight vector, as a weights header lists them."""
    h = HIDDEN_WIDTH
    return [[input_dim, h], [h], [h, h], [h], [h], []]


def _n_weights(input_dim: int) -> int:
    return sum(math.prod(shape) for shape in weight_shapes(input_dim))


class PolicyWeights:
    """The network's weights as one flat float64 vector, theta; w1, b1,
    w2, b2, w3 and b3 are views of consecutive slices of it, shaped by
    weight_shapes(input_dim).  A gradient is a PolicyWeights too, so an
    update works on the two vectors whole."""

    def __init__(self, theta: np.ndarray, input_dim: int):
        if theta.dtype != np.float64 or theta.shape != (_n_weights(input_dim),) or not theta.flags.c_contiguous:
            raise ValueError(f"theta must be a contiguous float64 vector of the {_n_weights(input_dim)} "
                             f"weights of input dim {input_dim}")
        self.theta = theta
        self.input_dim = input_dim
        views = []
        offset = 0
        for shape in weight_shapes(input_dim):
            size = math.prod(shape)
            views.append(theta[offset:offset + size].reshape(shape))
            offset += size
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = views

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3]


def init_weights(input_dim: int, rng: np.random.Generator) -> PolicyWeights:
    """Normal weights of standard deviation 1/sqrt(fan-in), drawn for w1,
    w2 and w3 in that order; zero biases."""
    w = PolicyWeights(np.zeros(_n_weights(input_dim)), input_dim)
    for a in (w.w1, w.w2, w.w3):
        a[...] = rng.normal(0.0, 1.0 / math.sqrt(a.shape[0]), size=a.shape)
    return w


def _forward(w: PolicyWeights, x: np.ndarray):
    """Softmax over the rows of features x, plus what the backward pass
    reuses: exp(logits - max logit), its sum and both hidden layers."""
    h1 = x @ w.w1
    h1 += w.b1
    np.tanh(h1, out=h1)
    h2 = h1 @ w.w2
    h2 += w.b2
    np.tanh(h2, out=h2)
    logits = h2 @ w.w3
    logits += w.b3
    shifted = np.exp(logits - np.maximum.reduce(logits))  # the ufunc that .max() wraps
    total = math.fsum(shifted.tolist())  # order-independent normalizer
    return shifted / total, shifted, total, h1, h2


def policy_forward(w: PolicyWeights, state: ClusterState, config: ShowerConfig) -> np.ndarray:
    """Distribution over the legal actions of a non-terminal state, from
    the features in the layout of w.input_dim."""
    if is_terminal(state):
        raise ValueError("terminal state has no actions")
    x = extract_pair_features(state, config, include_ps=w.input_dim == feature_dim(True))
    return _forward(w, x)[0]


def policy_loss_and_grad(w: PolicyWeights, features: np.ndarray, targets: Sequence[int],
                         out: PolicyWeights | None = None) -> tuple[float, PolicyWeights]:
    """Cross-entropy of the softmax over the rows of `features` (one row
    per legal action of a state) against the target action indices T,
    loss = -log sum_{a in T} pi(a), with the exact reverse-mode gradient.
    The gradient is written into `out` (a PolicyWeights of w's input dim)
    when given, else into a new one."""
    if not targets:
        raise ValueError("demonstration needs at least one target action")
    m = features.shape[0]
    if any(not (0 <= k < m) for k in targets):
        raise ValueError("target indices out of range")
    probs, shifted, total, h1, h2 = _forward(w, features)
    targets = list(targets)

    # Numerically stable -log q: the target and total sums of exp(logits - max).
    # A target sum that underflows to 0 is an infinite loss.
    target = math.fsum(shifted[targets].tolist())
    loss = math.inf if target == 0.0 else -(math.log(target) - math.log(total))

    g = PolicyWeights(np.empty_like(w.theta), w.input_dim) if out is None else out
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
    np.matmul(features.T, dz1, out=g.w1)
    np.add.reduce(dz1, axis=0, out=g.b1)
    return loss, g


def _sgd_update(w: PolicyWeights, g: PolicyWeights, lr: float) -> None:
    """w.theta -= lr * g.theta, the gradient clipped to norm GRAD_CLIP_NORM
    (g is scaled in place).  The squared norm adds each array's sum of
    squares in array order, which fixes its bits."""
    norm = math.sqrt(sum(float(np.add.reduce(a * a, axis=None)) for a in g.arrays()))
    g.theta *= lr if norm <= GRAD_CLIP_NORM else lr * GRAD_CLIP_NORM / norm
    w.theta -= g.theta


class NeuralPolicy:
    """PriorPolicy adapter around a weight set."""

    def __init__(self, weights: PolicyWeights, config: ShowerConfig, include_ps: bool = True):
        if weights.input_dim != feature_dim(include_ps):
            raise ValueError(
                f"weights expect input dim {weights.input_dim}, "
                f"features produce {feature_dim(include_ps)}")
        self.weights = weights
        self.config = config

    def priors(self, state: ClusterState) -> np.ndarray:
        return policy_forward(self.weights, state, self.config)


# ---------------------------------------------------------------------------
# Demonstrations
# ---------------------------------------------------------------------------

def _sibling_map(tree: Tree) -> dict[int, int]:
    """For every node below the root, its leaf bitmask mapped to its
    sibling's.  Bit k stands for the leaf at tree.leaf_indices[k], which
    is particle k of a state reset from the tree's leaves."""
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
    actions = action_table(state.n)
    return [actions[k] for k in _demonstrated(leaf_sets(state), _sibling_map(tree))]


# ---------------------------------------------------------------------------
# Training: one imitation loop, fed episodes by a demonstrator
# ---------------------------------------------------------------------------

MLE_DEMONSTRATOR_MAX_N = 10


def _demonstrator_tree(event, demonstrator: str, config: ShowerConfig) -> Tree:
    if demonstrator == "truth":
        return event.truth
    if demonstrator == "mle-for-small-n":
        if len(event.leaves) > MLE_DEMONSTRATOR_MAX_N:
            return event.truth
        return exact_mle(event.leaves, config)[1]
    raise ValueError(f"unknown demonstrator: {demonstrator!r}")


def _imitate(dataset: Sequence, w: PolicyWeights, episode, config: ShowerConfig, steps: int,
             lr: float, rng: np.random.Generator) -> tuple[PolicyWeights, list[float]]:
    """SGD on `steps` demonstrated decisions, in passes over the dataset in
    rng.permutation order.  episode(position, budget) plays that dataset
    item and returns at most `budget` (state, target action indices)
    pairs in order.  One extract_pair_features call per episode, in the
    layout of w.input_dim, then one step per state.  ValueError for an
    empty dataset, once a whole pass fits nothing, as every later pass
    would, or before the update of a step whose loss is not finite."""
    if not dataset:
        raise ValueError("dataset is empty")
    include_ps = w.input_dim == feature_dim(True)
    g = PolicyWeights(np.empty_like(w.theta), w.input_dim)
    losses: list[float] = []
    while len(losses) < steps:
        fitted = len(losses)
        for pos in rng.permutation(len(dataset)):
            demos = episode(int(pos), steps - len(losses))
            if demos:
                x = extract_pair_features([state for state, _ in demos], config, include_ps=include_ps)
                end = 0
                for state, t in demos:
                    start, end = end, end + state.n * (state.n - 1) // 2
                    loss = policy_loss_and_grad(w, x[start:end], t, g)[0]
                    if not math.isfinite(loss):
                        raise ValueError(f"training diverged: step {len(losses) + 1} has loss {loss!r} "
                                         f"at lr={lr!r}")
                    losses.append(loss)
                    _sgd_update(w, g, lr)
            if len(losses) >= steps:
                break
        if len(losses) == fitted:
            raise ValueError("no item of the dataset yields a demonstrated state")
    return w, losses


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
    until it leaves the tree.  Dataset items need .leaves and .truth
    attributes; an MLE tree is solved once per dataset position."""
    w = init_weights(feature_dim(include_ps), rng)
    siblings: dict[int, dict[int, int]] = {}

    def replay(pos: int, budget: int) -> list[tuple[ClusterState, tuple[int, ...]]]:
        if pos not in siblings:
            siblings[pos] = _sibling_map(_demonstrator_tree(dataset[pos], demonstrator, config))
        state = reset(dataset[pos].leaves)
        demos = []
        while not is_terminal(state) and len(demos) < budget:
            t = _demonstrated(state.masks, siblings[pos])
            if not t:
                break  # off-demonstration state, skip the rest
            demos.append((state, t))
            state = step(state, action_table(state.n)[t[int(rng.integers(len(t)))]], config)
        return demos

    return _imitate(dataset, w, replay, config, steps, lr, rng)


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
    if init is None:
        w = init_weights(feature_dim(include_ps), rng)
    else:
        w = PolicyWeights(init.theta.copy(), init.input_dim)
    policy = NeuralPolicy(w, config, include_ps=include_ps)

    def search(pos: int, budget: int) -> list[tuple[ClusterState, tuple[int]]]:
        decisions = cluster_mcts(dataset[pos].leaves, policy, cfg, config, rng)[2]
        return [(state, (k,)) for state, k in decisions[:budget]]

    return _imitate(dataset, w, search, config, steps, lr, rng)


# ---------------------------------------------------------------------------
# Serialization: one JSON header line, then raw little-endian float64
# ---------------------------------------------------------------------------

def weights_bytes(w: PolicyWeights, config_hash: str | None = None) -> bytes:
    """The weights file of `w`, which `harness.save_weights` writes and
    `load_weights` reads."""
    header = {
        "magic": WEIGHTS_MAGIC,
        "version": WEIGHTS_FORMAT_VERSION,
        "feature_schema": FEATURE_SCHEMA_VERSION,
        "include_ps": w.input_dim == feature_dim(True),
        "config_hash": config_hash,
        "shapes": weight_shapes(w.input_dim),
        "dtype": "<f8",
    }
    return json.dumps(header, sort_keys=True).encode() + b"\n" + np.ascontiguousarray(w.theta, dtype="<f8").tobytes()


# A header value, as load_weights' messages show it: its repr, cut short
# as harness._short cuts a value read from a dataset.
_short = reprlib.repr


def load_weights(path: str | Path) -> tuple[PolicyWeights, dict]:
    """The weights and header of a save_weights file.  ValueError unless
    the header is this format's, with little-endian float64 weights
    ("<f8") shaped as one of the two networks and the include_ps flag of
    those shapes, and the payload holds exactly the finite weights the
    shapes need.  OSError naming the path if the file cannot be opened."""
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise OSError(f"cannot read weights from {path}: {exc}") from exc
    with f:
        try:
            header = json.loads(f.readline().decode())
        except ValueError:
            raise ValueError(f"{path}: not a weights file") from None
        if not isinstance(header, dict) or header.get("magic") != WEIGHTS_MAGIC:
            raise ValueError(f"{path}: not a weights file")
        if header.get("version") != WEIGHTS_FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported weights format version {_short(header.get('version'))}")
        if header.get("feature_schema") != FEATURE_SCHEMA_VERSION:
            raise ValueError(f"{path}: feature schema {_short(header.get('feature_schema'))}, "
                             f"this version reads {FEATURE_SCHEMA_VERSION}")
        if header.get("dtype") != "<f8":
            raise ValueError(f"{path}: weights dtype {_short(header.get('dtype'))}, this version reads '<f8'")
        if "shapes" not in header:
            raise ValueError(f"{path}: weights header has no 'shapes' field")
        include_ps = next((flag for flag in (True, False)
                           if header["shapes"] == weight_shapes(feature_dim(flag))), None)
        if include_ps is None:
            raise ValueError(f"{path}: weights header shapes {_short(header['shapes'])} are not "
                             f"this network's")
        if header.get("include_ps") is not include_ps:
            raise ValueError(f"{path}: weights header include_ps {_short(header.get('include_ps'))} is not "
                             f"{include_ps}, which its shapes imply")
        payload = f.read()
    input_dim = feature_dim(include_ps)
    if len(payload) != 8 * _n_weights(input_dim):
        raise ValueError(f"{path}: payload of {len(payload)} bytes, the header's shapes "
                         f"need {8 * _n_weights(input_dim)} (8 per float64 weight); the file is "
                         f"truncated or was not written by save_weights")
    theta = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(theta).all():
        raise ValueError(f"{path}: {int(np.count_nonzero(~np.isfinite(theta)))} of {theta.size} "
                         f"weights are not finite")
    return PolicyWeights(theta.copy(), input_dim), header
