"""Per-pair feature vectors for the learnable merge prior.

One row per legal action (i, j), in the same lexicographic order as
`legal_actions`.  The two constituents are ordered canonically by their
momentum components rather than by list position, which makes the rows,
and hence the policy output, equivariant under particle permutations.
Momentum components are scaled by the event's total energy and
mass-squareds by its square to keep entries O(1) across event energies.
"""

import math
from bisect import bisect_left
from functools import cache

import numpy as np

from .env import ClusterState
from .shower import (
    ShowerConfig,
    Splitting,
    invariant_mass_sq,
    invariant_mass_sq_rows,
    splitting_log_likelihood,
)

FEATURE_SCHEMA_VERSION = 1

# E, px, py, pz of both constituents, t of each, t of the pair, n; log p_s
# is appended when include_ps is on.
N_BASE_FEATURES = 12
N_PARTICLES_COLUMN = 11


def feature_dim(include_ps: bool = True) -> int:
    return N_BASE_FEATURES + (1 if include_ps else 0)


@cache
def _pair_index(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions i < j of every pair of n particles in legal_actions order."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def extract_pair_features(
    state: ClusterState,
    config: ShowerConfig,
    include_ps: bool = True,
) -> np.ndarray:
    """Feature matrix of shape (C(n,2), feature_dim)."""
    particles = state.particles
    e_tot = math.fsum(p.E for p in particles)
    e_scale = 1.0 / e_tot
    t_scale = e_scale * e_scale
    keys = [p.as_tuple() for p in particles]
    mom = np.array(keys, dtype=float)
    masses = np.array([invariant_mass_sq(p) for p in particles], dtype=float)

    # The first constituent of a pair is the one whose (E, px, py, pz) is
    # lexicographically larger: rank each particle among the sorted keys,
    # equal keys sharing a rank, and swap the pair where j outranks i.
    ordered = sorted(keys)
    rank = np.array([bisect_left(ordered, key) for key in keys])
    i, j = _pair_index(state.n)
    swap = rank[j] > rank[i]
    first = np.where(swap, j, i)
    second = np.where(swap, i, j)

    out = np.empty((len(i), feature_dim(include_ps)))
    out[:, 0:4] = mom[first] * e_scale
    out[:, 4:8] = mom[second] * e_scale
    out[:, 8] = masses[first] * t_scale
    out[:, 9] = masses[second] * t_scale
    out[:, 10] = invariant_mass_sq_rows(mom[first] + mom[second]) * t_scale
    out[:, N_PARTICLES_COLUMN] = float(state.n)
    if include_ps:
        new_tuple = tuple.__new__  # builds each Splitting in C, as the trellis does
        out[:, N_BASE_FEATURES] = [
            splitting_log_likelihood(new_tuple(Splitting, (particles[a], particles[b])), config)
            for a, b in zip(first.tolist(), second.tolist())
        ]
    return out
