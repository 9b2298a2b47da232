"""Oracles the tests share: independent checks of the package that it
does not ship, since no caller of the package needs them."""

import io
import json

import numpy as np

from jetclust.shower import FourMomentum, ShowerConfig, Splitting, splitting_log_likelihood

ENUMERATION_N_MAX = 7


def _shapes(leaf_ids: tuple[int, ...]):
    """Yield every distinct unordered binary tree shape over the leaf
    indices, as nested (left, right) pairs with bare indices at the leaves."""
    if len(leaf_ids) == 1:
        yield leaf_ids[0]
        return
    low, rest = leaf_ids[0], leaf_ids[1:]
    m = len(rest)
    # Left subtree takes `low` plus any proper subset of the rest.
    for bits in range((1 << m) - 1):
        left_ids = (low,) + tuple(rest[k] for k in range(m) if bits >> k & 1)
        right_ids = tuple(rest[k] for k in range(m) if not bits >> k & 1)
        for left in _shapes(left_ids):
            for right in _shapes(right_ids):
                yield (left, right)


def enumerate_all_trees(
    leaves: list[FourMomentum] | tuple[FourMomentum, ...],
    config: ShowerConfig,
) -> tuple[float, int]:
    """Score all (2n-3)!! binary trees one by one; returns the best
    log-likelihood and the number of trees visited.  No table sharing
    with exact_mle, so it is an independent check of the DP."""
    n = len(leaves)
    if n < 2:
        raise ValueError(f"need at least 2 particles, got {n}")
    if n > ENUMERATION_N_MAX:
        raise ValueError(f"{n} leaves exceeds the enumeration guard of {ENUMERATION_N_MAX}")

    def score(shape) -> tuple[FourMomentum, float]:
        if isinstance(shape, int):
            return leaves[shape], 0.0
        pa, lla = score(shape[0])
        pb, llb = score(shape[1])
        return pa + pb, lla + llb + splitting_log_likelihood(Splitting(pa, pb), config)

    best_ll = None
    count = 0
    for shape in _shapes(tuple(range(n))):
        _, ll = score(shape)
        count += 1
        if best_ll is None or ll > best_ll:
            best_ll = ll
    return best_ll, count


# A JSON writer written apart from harness.dumps, through json.dumps, as
# its oracle: dumps must give the same string, or raise the same exception
# type, for every value.
def _reference_format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        return "0"  # normalizes -0.0 so round-trips stay byte-identical
    return format(x, ".17g")


def reference_dumps(obj) -> str:
    """Compact JSON with floats at 17 significant digits."""
    out = io.StringIO()
    _reference_write_json(obj, out)
    return out.getvalue()


def _reference_write_json(obj, out) -> None:
    if isinstance(obj, dict):
        out.write("{")
        first = True
        for k, v in obj.items():
            if not first:
                out.write(",")
            first = False
            out.write(json.dumps(str(k)))
            out.write(":")
            _reference_write_json(v, out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, v in enumerate(obj):
            if i:
                out.write(",")
            _reference_write_json(v, out)
        out.write("]")
    elif isinstance(obj, bool) or obj is None:
        out.write(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(_reference_format_float(float(obj)))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")
