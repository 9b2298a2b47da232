"""Per-pair feature vectors for the learnable merge prior.

One row per legal action (i, j), in the same lexicographic order as
`env.action_table`.  The two constituents are ordered canonically by their
momentum components rather than by list position, which makes the rows,
and hence the policy output, equivariant under particle permutations.
Momentum components are scaled by the event's total energy and
mass-squareds by its square to keep entries O(1) across event energies.
"""

import math
from bisect import bisect_left
from collections.abc import Sequence
from functools import cache

import numpy as np

from .costs import PS_EVALUATIONS
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
    """Positions i < j of every pair of n particles in action_table order."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def extract_pair_features(
    states: ClusterState | Sequence[ClusterState],
    config: ShowerConfig,
    include_ps: bool = True,
) -> np.ndarray:
    """Feature matrix of one state, shape (C(n,2), feature_dim), or of a
    non-empty sequence of states: their matrices stacked in order.

    The states of one episode share every particle object but the ones
    their merges made, so each distinct particle object is read once and
    each distinct pair of particle objects is scored once.  Every row
    still counts as one p_s evaluation: the rows that reuse a value are
    charged in one bulk add."""
    if isinstance(states, ClusterState):
        states = (states,)
    # The distinct particle objects in order of first appearance, and each
    # state's particles as indices into them, laid end to end.
    index_of: dict[int, int] = {}
    particles: list = []
    slots: list[int] = []
    for state in states:
        for p in state.particles:
            k = index_of.setdefault(id(p), len(particles))
            if k == len(particles):
                particles.append(p)
            slots.append(k)
    keys = [p.as_tuple() for p in particles]
    mom = np.array(keys, dtype=float)
    masses = np.array([invariant_mass_sq(p) for p in particles], dtype=float)

    # The pairs as particle positions, and each row's energy and mass
    # scales and particle count: scalars for one state.
    scales = [1.0 / math.fsum(p.E for p in state.particles) for state in states]
    if len(states) == 1:
        i, j = _pair_index(states[0].n)
        e_scale = scales[0]
        t_scale = e_scale * e_scale
        n_column = float(states[0].n)
    else:
        sizes = [state.n for state in states]
        rows = [n * (n - 1) // 2 for n in sizes]
        offsets = np.repeat(np.cumsum([0] + sizes[:-1]), rows)
        i = np.concatenate([_pair_index(n)[0] for n in sizes]) + offsets
        j = np.concatenate([_pair_index(n)[1] for n in sizes]) + offsets
        e_rows = np.repeat(scales, rows)
        e_scale, t_scale = e_rows[:, None], e_rows * e_rows
        n_column = np.repeat(np.array(sizes, dtype=float), rows)
    shared = len(particles) < len(slots)
    if shared:  # positions to particle indices
        slot = np.array(slots)
        i, j = slot[i], slot[j]

    # The first constituent of a pair is the one whose (E, px, py, pz) is
    # lexicographically larger: rank each particle among the sorted keys,
    # equal keys sharing a rank, and swap the pair where j outranks i.
    # Ranks over several states order each state's particles as its own
    # ranks would.
    ordered = sorted(keys)
    rank = np.array([bisect_left(ordered, key) for key in keys])
    swap = rank[j] > rank[i]
    first = np.where(swap, j, i)
    second = np.where(swap, i, j)
    mom_first, mom_second = mom[first], mom[second]

    out = np.empty((len(first), feature_dim(include_ps)))
    out[:, 0:4] = mom_first * e_scale
    out[:, 4:8] = mom_second * e_scale
    out[:, 8] = masses[first] * t_scale
    out[:, 9] = masses[second] * t_scale
    out[:, 10] = invariant_mass_sq_rows(mom_first + mom_second) * t_scale
    out[:, N_PARTICLES_COLUMN] = n_column
    if include_ps:
        out[:, N_BASE_FEATURES] = _ps_column(particles, first, second, shared, config)
    return out


def _ps_column(particles, first, second, shared, config):
    """log p_s of each row's pair (particles[first], particles[second]).
    Without shared particle objects every row is a distinct pair;
    otherwise each distinct pair is scored once, which is safe while the
    caller holds the objects whose ids the indices stand for."""
    if shared:
        # The kernel is symmetric in its children bit for bit, so a pair
        # is keyed unordered.
        key = np.minimum(first, second) * len(particles) + np.maximum(first, second)
        _, row, inverse = np.unique(key, return_index=True, return_inverse=True)
        first, second = first[row], second[row]
    new_tuple = tuple.__new__  # builds each Splitting in C, as the trellis does
    values = [
        splitting_log_likelihood(new_tuple(Splitting, (particles[a], particles[b])), config)
        for a, b in zip(first.tolist(), second.tolist())
    ]
    if not shared:
        return values
    PS_EVALUATIONS.increment(len(inverse) - len(values))
    return np.array(values)[inverse]
