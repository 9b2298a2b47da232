"""Toy shower generative model with exactly computable splitting densities.

A single massive particle undergoes successive binary decays.  At each
decay the two child mass-squareds are drawn from truncated exponentials
(the heavier bounded by the parent mass-squared, the lighter by the
kinematic remainder) and the decay axis is isotropic in the parent rest
frame.  Every splitting density is known in closed form, so the exact
log-likelihood of any binary tree over a set of observed particles can
be evaluated; that likelihood is the objective all clustering
algorithms in this package optimise.
"""

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .costs import PS_EVALUATIONS

# Absolute tolerance for negative mass-squared from float cancellation.
EPS_MASS_SQ = 1e-9

# Finite stand-in for log(0): keeps cumulative rewards totally ordered
# and finite so planners can always rank actions.
LOG_DENSITY_FLOOR = -1.0e5

# Relative slack when checking density support; mass-squareds recomputed
# from summed momenta can land a few ulp outside [0, t_max].
_SUPPORT_RTOL = 1e-12

_LOG_INV_4PI = -math.log(4.0 * math.pi)


@dataclass(frozen=True, slots=True)
class FourMomentum:
    """Relativistic (E, px, py, pz) in model units."""

    E: float
    px: float
    py: float
    pz: float

    def __add__(self, other: "FourMomentum") -> "FourMomentum":
        return FourMomentum(
            self.E + other.E,
            self.px + other.px,
            self.py + other.py,
            self.pz + other.pz,
        )

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.E, self.px, self.py, self.pz)


def invariant_mass_sq(p: FourMomentum) -> float:
    """Squared invariant mass t = E^2 - |p|^2, clamped to 0 within EPS_MASS_SQ."""
    t = p.E * p.E - p.px * p.px - p.py * p.py - p.pz * p.pz
    if t < 0.0:
        if t < -EPS_MASS_SQ:
            raise ValueError(f"momentum is spacelike beyond tolerance: t={t!r}")
        return 0.0
    return t


@dataclass(frozen=True)
class ShowerConfig:
    """Generative-model parameters.

    lam    : decay-rate shape parameter of the truncated exponential (> 0)
    t_cut  : mass-squared cutoff below which a particle stops decaying (> 0)
    root   : four-momentum of the initial particle, t(root) > t_cut
    rng_seed : root seed for the event streams
    """

    lam: float
    t_cut: float
    root: FourMomentum
    rng_seed: int = 0

    def validate(self) -> None:
        if self.lam <= 0.0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if self.t_cut <= 0.0:
            raise ValueError(f"t_cut must be > 0, got {self.t_cut}")
        if invariant_mass_sq(self.root) <= self.t_cut:
            raise ValueError("root mass-squared must exceed t_cut; the shower would be a single leaf")


@dataclass
class TreeNode:
    momentum: FourMomentum
    t: float
    parent: int | None = None
    children: tuple[int, int] | None = None
    # Log-density of the splitting this node underwent, recorded when the
    # tree came out of the sampler (None for leaves and rebuilt trees).
    split_ll: float | None = None


@dataclass
class Tree:
    """Binary tree over four-momenta; used for both simulated truth trees
    and clusterings proposed by planners."""

    nodes: list[TreeNode]
    root_index: int
    leaf_indices: list[int]

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_indices)

    def leaf_momenta(self) -> list[FourMomentum]:
        return [self.nodes[i].momentum for i in self.leaf_indices]

    def internal_indices(self) -> list[int]:
        return [i for i, node in enumerate(self.nodes) if node.children is not None]


class Splitting(NamedTuple):
    """One merge: two children whose sum is the parent; the pair is unordered."""

    child_a: FourMomentum
    child_b: FourMomentum


def truncated_exp_log_density(t: float, t_max: float, lam: float) -> float:
    """log f(t | lam, t_max) with f = (lam/t_max) exp(-lam t/t_max) / (1 - exp(-lam))
    on [0, t_max]; LOG_DENSITY_FLOOR outside the support."""
    if t_max <= 0.0:
        raise ValueError(f"t_max must be > 0, got {t_max}")
    if lam <= 0.0:
        raise ValueError(f"lam must be > 0, got {lam}")
    tol = _SUPPORT_RTOL * t_max
    if t < -tol or t > t_max + tol:
        return LOG_DENSITY_FLOOR
    t = min(max(t, 0.0), t_max)
    return math.log(lam / t_max) - lam * t / t_max - math.log1p(-math.exp(-lam))


def sample_truncated_exp(t_max: float, lam: float, rng: np.random.Generator) -> float:
    """Inverse-CDF draw from the truncated exponential on [0, t_max]."""
    if t_max <= 0.0:
        raise ValueError(f"t_max must be > 0, got {t_max}")
    if lam <= 0.0:
        raise ValueError(f"lam must be > 0, got {lam}")
    u = rng.random()
    return -(t_max / lam) * math.log1p(-u * (-math.expm1(-lam)))


def two_body_decay(
    parent: FourMomentum,
    t_a: float,
    t_b: float,
    direction: tuple[float, float, float],
) -> tuple[FourMomentum, FourMomentum]:
    """Decay `parent` into children of mass-squared t_a and t_b emitted
    back-to-back along `direction` in the parent rest frame, boosted to
    the lab frame.  Requires sqrt(t_p) >= sqrt(t_a) + sqrt(t_b)."""
    t_p = invariant_mass_sq(parent)
    if t_p <= 0.0:
        raise ValueError("parent must be massive")
    m_p = math.sqrt(t_p)
    if math.sqrt(max(t_a, 0.0)) + math.sqrt(max(t_b, 0.0)) > m_p * (1.0 + 1e-12):
        raise ValueError(f"children too heavy: sqrt({t_a}) + sqrt({t_b}) > sqrt({t_p})")

    # Parent rest frame: energies from the mass constraint, |p*| from the
    # Kallen triangle function (clamped against cancellation at threshold).
    e_a = (t_p + t_a - t_b) / (2.0 * m_p)
    e_b = m_p - e_a
    kallen = (t_p - t_a - t_b) ** 2 - 4.0 * t_a * t_b
    p_star = math.sqrt(max(kallen, 0.0)) / (2.0 * m_p)
    nx, ny, nz = direction
    qx, qy, qz = p_star * nx, p_star * ny, p_star * nz

    # Rotation-free boost with the parent lab momentum P:
    #   E_lab = (E_parent e* + P.q*) / m_p
    #   q_lab = q* + P (q*.P / (m_p (E_parent + m_p)) + e*/m_p)
    def boost(e_star: float, qx: float, qy: float, qz: float) -> FourMomentum:
        p_dot_q = parent.px * qx + parent.py * qy + parent.pz * qz
        e_lab = (parent.E * e_star + p_dot_q) / m_p
        coeff = p_dot_q / (m_p * (parent.E + m_p)) + e_star / m_p
        return FourMomentum(
            e_lab,
            qx + parent.px * coeff,
            qy + parent.py * coeff,
            qz + parent.pz * coeff,
        )

    return boost(e_a, qx, qy, qz), boost(e_b, -qx, -qy, -qz)


def _isotropic_direction(rng: np.random.Generator) -> tuple[float, float, float]:
    cos_theta = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    sin_theta = math.sqrt(max(1.0 - cos_theta * cos_theta, 0.0))
    return (sin_theta * math.cos(phi), sin_theta * math.sin(phi), cos_theta)


def _unordered_pair_log_density(t_a: float, t_b: float, t_p: float, lam: float) -> float:
    """Splitting density on the unordered child pair: the heavier mass is
    scored against bound t_p, the lighter against the kinematic remainder."""
    t_l, t_r = (t_a, t_b) if t_a >= t_b else (t_b, t_a)
    first = truncated_exp_log_density(t_l, t_p, lam)
    bound = (math.sqrt(t_p) - math.sqrt(t_l)) ** 2
    second = truncated_exp_log_density(t_r, bound, lam) if bound > 0.0 else LOG_DENSITY_FLOOR
    return first + second + _LOG_INV_4PI


def sample_shower(config: ShowerConfig, rng: np.random.Generator) -> Tree:
    """Simulate one decay tree.

    Any node with mass-squared >= t_cut splits: draw t_a on [0, t_p],
    then t_b on [0, (sqrt(t_p) - sqrt(t_a))^2], draw an isotropic axis,
    and boost the children to the lab frame.  Nodes below t_cut become
    leaves.  Each internal node records the log-density of its own draw
    so the tree likelihood can be cross-checked against recomputation
    from the stored momenta alone.
    """
    config.validate()
    root_t = invariant_mass_sq(config.root)
    nodes = [TreeNode(momentum=config.root, t=root_t)]
    leaf_indices: list[int] = []
    stack = [0]
    while stack:
        idx = stack.pop()
        node = nodes[idx]
        if node.t < config.t_cut:
            leaf_indices.append(idx)
            continue
        t_p = node.t
        t_a = sample_truncated_exp(t_p, config.lam, rng)
        remainder = (math.sqrt(t_p) - math.sqrt(t_a)) ** 2
        t_b = sample_truncated_exp(remainder, config.lam, rng) if remainder > 0.0 else 0.0
        direction = _isotropic_direction(rng)
        child_a, child_b = two_body_decay(node.momentum, t_a, t_b, direction)
        node.split_ll = _unordered_pair_log_density(t_a, t_b, t_p, config.lam)

        ia = len(nodes)
        nodes.append(TreeNode(momentum=child_a, t=invariant_mass_sq(child_a), parent=idx))
        ib = len(nodes)
        nodes.append(TreeNode(momentum=child_b, t=invariant_mass_sq(child_b), parent=idx))
        node.children = (ia, ib)
        stack.append(ib)
        stack.append(ia)
    return Tree(nodes=nodes, root_index=0, leaf_indices=leaf_indices)


# The p_s memo of the open ps_memo() scope, or None outside any scope.
_PS_MEMO: ContextVar[dict | None] = ContextVar("ps_memo", default=None)


@contextmanager
def ps_memo():
    """Scope in which splitting_log_likelihood remembers the values it
    computed.  A scope opened inside another reuses the outer memo.  The
    memo only saves work: every call is still counted, and a remembered
    value is the one the kernel would compute."""
    memo = _PS_MEMO.get()
    if memo is not None:
        yield memo
        return
    memo = {}
    token = _PS_MEMO.set(memo)
    try:
        yield memo
    finally:
        _PS_MEMO.reset(token)


def splitting_log_likelihood(s: Splitting, config: ShowerConfig) -> float:
    """log p_s of one merge, a deterministic function of the unordered
    child pair.  Every call increments the shared evaluation counter,
    also when the open ps_memo() scope already holds the value."""
    PS_EVALUATIONS.increment()
    a, b = s.child_a, s.child_b
    memo = _PS_MEMO.get()
    if memo is not None:
        key = (a.E, a.px, a.py, a.pz, b.E, b.px, b.py, b.pz, config.lam)
        value = memo.get(key)
        if value is not None:
            return value
    if a.E < 0.0 or b.E < 0.0:
        raise ValueError("child energies must be non-negative")
    t_a = invariant_mass_sq(a)
    t_b = invariant_mass_sq(b)
    t_p = invariant_mass_sq(a + b)
    if t_p <= 0.0:
        # Degenerate (exactly collinear massless) merge: no valid decay.
        value = 2.0 * LOG_DENSITY_FLOOR + _LOG_INV_4PI
    else:
        value = _unordered_pair_log_density(t_a, t_b, t_p, config.lam)
    if memo is not None:
        # The value is symmetric in the children bit for bit (the sum and
        # the heavier/lighter ordering do not depend on their order), so
        # it serves the swapped query too.
        memo[key] = value
        memo[(b.E, b.px, b.py, b.pz, a.E, a.px, a.py, a.pz, config.lam)] = value
    return value


def tree_log_likelihood(tree: Tree, config: ShowerConfig) -> float:
    """Total log-likelihood of a binary tree: the sum of splitting
    log-densities over its internal nodes."""
    total = 0.0
    for node in tree.nodes:
        if node.children is None:
            continue
        ca, cb = node.children
        total += splitting_log_likelihood(
            Splitting(tree.nodes[ca].momentum, tree.nodes[cb].momentum), config)
    return total
