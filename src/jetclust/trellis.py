"""Exact maximum-likelihood clustering by dynamic programming over leaf
subsets.

The table is indexed by bitmask.  For a subset S the best value is

    MLL(S) = max over splits (A, S\\A) of
             log p_s(p(A), p(S\\A)) + MLL(A) + MLL(S\\A)

where A ranges over proper nonempty subsets of S containing S's lowest
set bit (children are unordered, so this halves the symmetric
duplicates).  Cost is O(3^n) density evaluations, so n is guarded.
"""

import math

from .env import check_leaves, tree_from_history
from .shower import FourMomentum, ShowerConfig, Splitting, Tree, splitting_log_likelihood

DEFAULT_N_MAX = 16


def _fill_table(
    leaves: list[FourMomentum] | tuple[FourMomentum, ...],
    config: ShowerConfig,
) -> tuple[list[float], list[int], list[FourMomentum]]:
    """Best log-likelihood, best split mask, and momentum sum per subset."""
    n = len(leaves)
    size = 1 << n
    psum: list[FourMomentum] = [FourMomentum(0.0, 0.0, 0.0, 0.0)] * size
    mll = [0.0] * size
    best = [0] * size
    for k in range(n):
        psum[1 << k] = leaves[k]
    # Splitting(a, b) runs the NamedTuple's Python-level __new__ on each
    # of the O(3^n) queries; tuple.__new__ builds the same Splitting in C.
    new_tuple = tuple.__new__
    for mask in range(1, size):
        if mask & (mask - 1) == 0:
            continue  # single leaf: MLL = 0
        low = mask & -mask
        rest = mask ^ low
        psum[mask] = psum[low] + psum[rest]
        # b runs over the proper subsets of rest, largest first.  Kernel
        # values are finite (floored), so the first split replaces the
        # seed; after it only a strictly larger value does, so ties go to
        # the first maximum.
        best_val, best_split = -math.inf, 0
        b = rest
        while b:
            b = (b - 1) & rest
            a_mask = low | b  # proper nonempty subset of mask containing its lowest bit
            c_mask = mask ^ a_mask
            s = new_tuple(Splitting, (psum[a_mask], psum[c_mask]))
            val = splitting_log_likelihood(s, config) + mll[a_mask] + mll[c_mask]
            if val > best_val:
                best_val = val
                best_split = a_mask
        mll[mask] = best_val
        best[mask] = best_split
    return mll, best, psum


def _backtrack(mask: int, best: list[int], history: list[tuple[int, int]]) -> None:
    """Append the merges of the best tree over `mask` to `history` in
    post-order, as (mask_a, mask_b) pairs."""
    if mask & (mask - 1):
        a_mask = best[mask]
        _backtrack(a_mask, best, history)
        _backtrack(mask ^ a_mask, best, history)
        history.append((a_mask, mask ^ a_mask))


def exact_mle(
    leaves: list[FourMomentum] | tuple[FourMomentum, ...],
    config: ShowerConfig,
) -> tuple[float, Tree]:
    """Maximum-likelihood binary tree over the given particles."""
    check_leaves(leaves)
    n = len(leaves)
    if n > DEFAULT_N_MAX:
        raise ValueError(f"{n} leaves exceeds the DEFAULT_N_MAX={DEFAULT_N_MAX} cost guard")
    mll, best, _ = _fill_table(leaves, config)
    full = (1 << n) - 1
    history: list[tuple[int, int]] = []
    _backtrack(full, best, history)
    return mll[full], tree_from_history(tuple(leaves), history)
