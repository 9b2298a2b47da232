"""Per-pair feature vectors for the learnable merge prior.

One row per legal action (i, j), in the same lexicographic order as
`env.action_table`.  The two constituents are ordered canonically by their
momentum components rather than by list position, which makes the rows,
and hence the policy output, equivariant under particle permutations.
Momentum components are scaled by the event's total energy and
mass-squareds by its square to keep entries O(1) across event energies.
The particle count is scaled by 0.05, and log p_s is clipped to
[-100, 100] (it can sit at the out-of-support floor) and scaled by 0.1,
so that no column can saturate the network's tanh layers.
"""

import math
from bisect import bisect_left
from collections.abc import Sequence
from functools import cache

import numpy as np

from .costs import PS_EVALUATIONS
from .env import ClusterState
from .planners import _rewards
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

    One state's p_s column is `planners._rewards`, one kernel call per
    row.  The states of a longer sequence, one episode's, share every
    particle object but the ones their merges made, so there each
    distinct particle object is read once and each distinct pair of
    particle objects is scored once.  Every row still counts as one p_s
    evaluation: the rows that reuse a value are charged in one bulk add."""
    if isinstance(states, ClusterState):
        states = (states,)
    elif len(states) == 0:
        raise ValueError("extract_pair_features got an empty sequence of states; "
                         "it takes one state or a non-empty sequence of them")
    # The particles, the pairs as positions in them, and each row's energy
    # and mass scales and particle count: scalars for one state.
    scales = [1.0 / math.fsum(p.E for p in state.particles) for state in states]
    if len(states) == 1:
        particles = states[0].particles
        i, j = _pair_index(states[0].n)
        e_scale = scales[0]
        t_scale = e_scale * e_scale
        n_column = float(states[0].n)
    else:
        # The distinct particle objects in order of first appearance, and
        # each state's particles as indices into them, laid end to end.
        index_of: dict[int, int] = {}
        particles = []
        slots: list[int] = []
        for state in states:
            for p in state.particles:
                k = index_of.setdefault(id(p), len(particles))
                if k == len(particles):
                    particles.append(p)
                slots.append(k)
        sizes = [state.n for state in states]
        rows = [n * (n - 1) // 2 for n in sizes]
        offsets = np.repeat(np.cumsum([0] + sizes[:-1]), rows)
        slot = np.array(slots)
        i = slot[np.concatenate([_pair_index(n)[0] for n in sizes]) + offsets]
        j = slot[np.concatenate([_pair_index(n)[1] for n in sizes]) + offsets]
        e_rows = np.repeat(scales, rows)
        e_scale, t_scale = e_rows[:, None], e_rows * e_rows
        n_column = np.repeat(np.array(sizes, dtype=float), rows)
    keys = [p.as_tuple() for p in particles]
    mom = np.array(keys, dtype=float)
    masses = np.array([invariant_mass_sq(p) for p in particles], dtype=float)

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
    out[:, 11] = n_column * 0.05
    if include_ps:
        # The kernel is symmetric in its children bit for bit, so _rewards,
        # which scores each pair in position order, gives the rows' values.
        if len(states) == 1:
            log_ps = np.array(_rewards(states[0], config))
        else:
            log_ps = _ps_column(particles, first, second, config)
        # The clip as the two ufuncs np.clip ends in, without its
        # Python-level wrapper, which costs more than they do.
        np.maximum(log_ps, -100.0, out=log_ps)
        np.minimum(log_ps, 100.0, out=log_ps)
        out[:, N_BASE_FEATURES] = log_ps * 0.1
    return out


def _ps_column(particles, first, second, config):
    """log p_s of each row's pair (particles[first], particles[second]),
    each distinct pair scored once, which is safe while the caller holds
    the objects whose identities the indices stand for.  The pair is
    keyed unordered, as the kernel is symmetric in its children."""
    key = np.minimum(first, second) * len(particles) + np.maximum(first, second)
    _, row, inverse = np.unique(key, return_index=True, return_inverse=True)
    new_tuple = tuple.__new__  # builds each Splitting in C, as the trellis does
    values = [
        splitting_log_likelihood(new_tuple(Splitting, (particles[a], particles[b])), config)
        for a, b in zip(first[row].tolist(), second[row].tolist())
    ]
    PS_EVALUATIONS.increment(len(inverse) - len(values))
    return np.array(values)[inverse]
