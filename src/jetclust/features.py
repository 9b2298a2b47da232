"""Per-pair feature vectors for the learnable merge prior.

One row per legal action (i, j), in the same lexicographic order as
`legal_actions`.  The two constituents are ordered canonically by their
momentum components rather than by list position, which makes the rows,
and hence the policy output, equivariant under particle permutations.
Momentum components are scaled by the event's total energy and
mass-squareds by its square to keep entries O(1) across event energies.
"""

import math

import numpy as np

from .env import ClusterState, legal_actions
from .shower import ShowerConfig, Splitting, invariant_mass_sq, splitting_log_likelihood

FEATURE_SCHEMA_VERSION = 1

# E, px, py, pz of both constituents, t of each, t of the pair, n; log p_s
# is appended when include_ps is on.
N_BASE_FEATURES = 12
N_PARTICLES_COLUMN = 11


def feature_dim(include_ps: bool = True) -> int:
    return N_BASE_FEATURES + (1 if include_ps else 0)


def extract_pair_features(
    state: ClusterState,
    config: ShowerConfig,
    include_ps: bool = True,
) -> np.ndarray:
    """Feature matrix of shape (C(n,2), feature_dim)."""
    e_tot = math.fsum(p.E for p in state.particles)
    e_scale = 1.0 / e_tot
    t_scale = e_scale * e_scale
    n = float(state.n)
    masses = [invariant_mass_sq(p) for p in state.particles]

    actions = legal_actions(state)
    out = np.empty((len(actions), feature_dim(include_ps)))
    for row, act in enumerate(actions):
        pi, pj = state.particles[act.i], state.particles[act.j]
        ti, tj = masses[act.i], masses[act.j]
        if pj.as_tuple() > pi.as_tuple():
            pi, pj = pj, pi
            ti, tj = tj, ti
        t_pair = invariant_mass_sq(pi + pj)
        feats = [
            pi.E * e_scale, pi.px * e_scale, pi.py * e_scale, pi.pz * e_scale,
            pj.E * e_scale, pj.px * e_scale, pj.py * e_scale, pj.pz * e_scale,
            ti * t_scale, tj * t_scale, t_pair * t_scale, n,
        ]
        if include_ps:
            feats.append(splitting_log_likelihood(Splitting(pi, pj), config))
        out[row] = feats
    return out
