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
import struct
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, fields
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

# Bound here so the kernel finds each in one global lookup, not a
# global and an attribute lookup per query.
_log = math.log
_sqrt = math.sqrt


@dataclass(frozen=True, slots=True)
class FourMomentum:
    """Relativistic (E, px, py, pz) in model units."""

    E: float
    px: float
    py: float
    pz: float
    # invariant_mass_sq(self), filled by the first invariant_mass_sq or
    # splitting_log_likelihood that needs it and left None while that
    # raises; no comparison, hash, repr or pickle sees it.
    _t: float | None = field(default=None, init=False, repr=False, compare=False)
    # The p_s memo's key for this momentum, the bytes of (E, px, py, pz)
    # packed as four little-endian doubles, filled by the first
    # splitting_log_likelihood inside a ps_memo() scope that queries it;
    # no comparison, hash, repr or pickle sees it either.
    _k: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __add__(self, other: "FourMomentum") -> "FourMomentum":
        # Built through the slot descriptors, as __init__ would fill the
        # slots but without its frozen-class object.__setattr__ calls.
        p = _new_object(FourMomentum)
        _set_E(p, self.E + other.E)
        _set_px(p, self.px + other.px)
        _set_py(p, self.py + other.py)
        _set_pz(p, self.pz + other.pz)
        _set_t(p, None)
        _set_k(p, None)
        return p

    def __reduce__(self):
        return FourMomentum, self.as_tuple()

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.E, self.px, self.py, self.pz)


_new_object = object.__new__
# One setter per field, in field order; a field added to the class
# makes this unpacking fail at import.
_set_E, _set_px, _set_py, _set_pz, _set_t, _set_k = (
    FourMomentum.__dict__[f.name].__set__ for f in fields(FourMomentum))


def _fill_mass_sq(p: FourMomentum) -> float:
    """Compute p's E^2 - |p|^2 clamped to 0 within EPS_MASS_SQ, keep it in
    p's slot and return it; ValueError, with the slot left empty, if p is
    spacelike beyond tolerance."""
    t = p.E * p.E - p.px * p.px - p.py * p.py - p.pz * p.pz
    if t < 0.0:
        if t < -EPS_MASS_SQ:
            raise ValueError(f"momentum is spacelike beyond tolerance: t={t!r}")
        t = 0.0
    _set_t(p, t)
    return t


_pack_key = struct.Struct("<4d").pack


def _fill_key(p: FourMomentum) -> bytes:
    """Pack p's components into its memo key, keep it in p's slot and
    return it.  A bytes object caches its own hash, so a memo lookup
    hashes each key once."""
    k = _pack_key(p.E, p.px, p.py, p.pz)
    _set_k(p, k)
    return k


def invariant_mass_sq(p: FourMomentum) -> float:
    """Squared invariant mass t = E^2 - |p|^2, clamped to 0 within EPS_MASS_SQ."""
    t = p._t
    return _fill_mass_sq(p) if t is None else t


def invariant_mass_sq_rows(p: np.ndarray) -> np.ndarray:
    """invariant_mass_sq of each row (E, px, py, pz) of p, by the same
    operations in the same order, so every entry has the scalar's bits."""
    E, px, py, pz = p.T
    t = E * E - px * px - py * py - pz * pz
    low = t < 0.0
    if low.any():
        beyond = t < -EPS_MASS_SQ
        if beyond.any():
            t_bad = float(t[beyond.argmax()])
            raise ValueError(f"momentum is spacelike beyond tolerance: t={t_bad!r}")
        t[low] = 0.0
    return t


@dataclass(frozen=True)
class ShowerConfig:
    """Generative-model parameters; making a config with one out of range
    raises ValueError naming it.

    lam    : decay-rate shape parameter of the truncated exponential (> 0)
    t_cut  : mass-squared cutoff below which a particle stops decaying (> 0)
    root   : four-momentum of the initial particle, E >= 0 and t(root) > t_cut
    rng_seed : root seed for the event streams
    log_norm : log(1 - exp(-lam)), the truncated exponential's normaliser,
               computed from lam when the config is made; no comparison,
               hash, repr or file sees it
    """

    lam: float
    t_cut: float
    root: FourMomentum
    rng_seed: int = 0
    log_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.lam, self.t_cut, *self.root.as_tuple()))):
            raise ValueError(f"lam, t_cut and root must be finite, got {self}")
        if self.lam <= 0.0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        # Raises for lam up to 2**-54, about 5.6e-17.
        object.__setattr__(self, "log_norm", _log_norm(self.lam))
        if self.t_cut <= 0.0:
            raise ValueError(f"t_cut must be > 0, got {self.t_cut}")
        if self.root.E < 0.0:
            raise ValueError(f"root {self.root.as_tuple()} has negative energy; the sampler needs E >= 0")
        t_root = invariant_mass_sq(self.root)
        # The sampler squares mass-squareds (the Kallen term of two_body_decay).
        if not math.isfinite(t_root * t_root):
            raise ValueError(f"root {self.root.as_tuple()} has mass-squared {t_root!r}; the sampler "
                             "needs it and its square to be finite, so the root overflows")
        if t_root <= self.t_cut:
            raise ValueError("root mass-squared must exceed t_cut; the shower would be a single leaf")


@dataclass
class TreeNode:
    momentum: FourMomentum
    parent: int | None = None
    children: tuple[int, int] | None = None
    # Log-density of the splitting this node underwent, recorded when the
    # tree came out of the sampler (None for leaves and rebuilt trees).
    split_ll: float | None = None

    @property
    def t(self) -> float:
        """The node's mass-squared, invariant_mass_sq(momentum), which the
        momentum's slot holds once computed."""
        return invariant_mass_sq(self.momentum)


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
    if t < 0.0:
        t = 0.0
    elif t > t_max:
        t = t_max
    return math.log(lam / t_max) - lam * t / t_max - _log_norm(lam)


def _log_norm(lam: float) -> float:
    """log(1 - exp(-lam)); ValueError where exp(-lam) rounds to 1, so that
    the normaliser does not exist."""
    exp_neg = math.exp(-lam)
    if exp_neg == 1.0:
        raise ValueError(f"lam {lam} is too small: exp(-lam) rounds to 1, so the "
                         f"density normaliser log(1 - exp(-lam)) does not exist")
    return math.log1p(-exp_neg)


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
    if t_a < t_b:
        t_a, t_b = t_b, t_a
    first = truncated_exp_log_density(t_a, t_p, lam)
    bound = (math.sqrt(t_p) - math.sqrt(t_a)) ** 2
    second = truncated_exp_log_density(t_b, bound, lam) if bound > 0.0 else LOG_DENSITY_FLOOR
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
    nodes = [TreeNode(momentum=config.root)]
    leaf_indices: list[int] = []
    stack = [0]
    while stack:
        idx = stack.pop()
        node = nodes[idx]
        t_p = node.t
        if t_p < config.t_cut:
            leaf_indices.append(idx)
            continue
        t_a = sample_truncated_exp(t_p, config.lam, rng)
        remainder = (math.sqrt(t_p) - math.sqrt(t_a)) ** 2
        t_b = sample_truncated_exp(remainder, config.lam, rng) if remainder > 0.0 else 0.0
        direction = _isotropic_direction(rng)
        child_a, child_b = two_body_decay(node.momentum, t_a, t_b, direction)
        node.split_ll = _unordered_pair_log_density(t_a, t_b, t_p, config.lam)

        ia = len(nodes)
        nodes.append(TreeNode(momentum=child_a, parent=idx))
        ib = len(nodes)
        nodes.append(TreeNode(momentum=child_b, parent=idx))
        node.children = (ia, ib)
        stack.append(ib)
        stack.append(ia)
    return Tree(nodes=nodes, root_index=0, leaf_indices=leaf_indices)


# The p_s memo of the open ps_memo() scope, or None outside any scope.
_PS_MEMO: ContextVar[dict | None] = ContextVar("ps_memo", default=None)


@contextmanager
def ps_memo():
    """Scope in which splitting_log_likelihood remembers the values it
    computed, in a fresh memo; the memo of an enclosing scope is current
    again on exit.  The memo only saves work: every call is still
    counted, and a remembered value is the one the kernel would compute.

    The memo maps (a._k, b._k, lam) to the value, each child keyed by
    the packed bits of its components (`_fill_key`), so equal momenta
    that are separate objects share an entry.  Bits are not values: 0.0
    and -0.0 are separate keys, which costs a miss and never a different
    value, since the kernel only squares and sums components."""
    memo = {}
    token = _PS_MEMO.set(memo)
    try:
        yield memo
    finally:
        _PS_MEMO.reset(token)


def splitting_log_likelihood(s: Splitting, config: ShowerConfig) -> float:
    """log p_s of one merge, a deterministic function of the unordered
    child pair.  Every call adds 1 to the shared evaluation counter,
    also when the open ps_memo() scope already holds the value.  Inside
    a scope the query fills each child's memo key on first use and
    looks up (a._k, b._k, lam); outside one it reads no key.

    The body is invariant_mass_sq of both children (read from their
    slots after the first query), the same clamp on the mass of their
    component sums, and _unordered_pair_log_density, written out in one
    function with the same operations in the same order, so it returns
    their bits; the tests hold it to them.  The normaliser is
    config.log_norm, which a ShowerConfig computes when it is made, so
    a query checks nothing of the config."""
    PS_EVALUATIONS.count += 1
    a, b = s
    memo = _PS_MEMO.get()
    lam = config.lam
    if memo is not None:
        # A hit, most queries in a planner's scope, reads two cached keys
        # and hashes one float.
        ka = a._k
        if ka is None:
            ka = _fill_key(a)
        kb = b._k
        if kb is None:
            kb = _fill_key(b)
        key = (ka, kb, lam)
        try:
            return memo[key]
        except KeyError:
            pass
    ae, ax, ay, az = a.E, a.px, a.py, a.pz
    be, bx, by, bz = b.E, b.px, b.py, b.pz
    if ae < 0.0 or be < 0.0:
        raise ValueError("child energies must be non-negative")
    t_a = a._t
    if t_a is None:
        t_a = _fill_mass_sq(a)
    t_b = b._t
    if t_b is None:
        t_b = _fill_mass_sq(b)
    pe, px, py, pz = ae + be, ax + bx, ay + by, az + bz
    t_p = pe * pe - px * px - py * py - pz * pz
    if t_p < 0.0:
        if t_p < -EPS_MASS_SQ:
            raise ValueError(f"momentum is spacelike beyond tolerance: t={t_p!r}")
        t_p = 0.0
    if t_p <= 0.0:
        # Degenerate (exactly collinear massless) merge: no valid decay.
        value = 2.0 * LOG_DENSITY_FLOOR + _LOG_INV_4PI
    else:
        if t_a < t_b:
            t_a, t_b = t_b, t_a
        # Both masses are >= 0 here, so only the upper edge of each
        # support can be crossed.  The heavier mass against bound t_p:
        if t_a > t_p + _SUPPORT_RTOL * t_p:
            first = LOG_DENSITY_FLOOR
        else:
            t = t_p if t_a > t_p else t_a
            first = _log(lam / t_p) - lam * t / t_p - config.log_norm
        # the lighter against the remainder, bounded by the unclamped t_a:
        bound = (_sqrt(t_p) - _sqrt(t_a)) ** 2
        if not bound > 0.0 or t_b > bound + _SUPPORT_RTOL * bound:
            second = LOG_DENSITY_FLOOR
        else:
            t = bound if t_b > bound else t_b
            second = _log(lam / bound) - lam * t / bound - config.log_norm
        value = first + second + _LOG_INV_4PI
    if memo is not None:
        # The value is symmetric in the children bit for bit (the sum and
        # the heavier/lighter ordering do not depend on their order), so
        # it serves the swapped query too.
        memo[key] = value
        memo[(kb, ka, lam)] = value
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
