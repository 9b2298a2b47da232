"""Output checks and the behaviour fingerprint.

The checks run after the timed pass, and the density evaluations they
make are never read into a metric.  Each returns a list of problems; an
event with any problem counts as a failed operation.
"""

import hashlib
import math

from jetclust import planners
from jetclust.shower import tree_log_likelihood

LL_TOL = 1e-9


def tree_problems(tree, n_leaves: int) -> list[str]:
    """Problems that keep `tree` from being a full binary tree over
    exactly leaves 0..n_leaves-1 of the event, each used once."""
    if tree is None:
        return ["no tree"]
    if sorted(tree.leaf_indices) != list(range(n_leaves)):
        return [f"leaf indices {tree.leaf_indices} are not the event's {n_leaves} leaves"]
    if len(tree.nodes) != 2 * n_leaves - 1:
        return [f"{len(tree.nodes)} nodes, a full binary tree over {n_leaves} leaves has {2 * n_leaves - 1}"]
    seen: list[int] = []
    stack = [tree.root_index]
    while stack:
        idx = stack.pop()
        if not 0 <= idx < len(tree.nodes) or len(seen) > len(tree.nodes):
            return [f"node index {idx} out of range or cycle"]
        seen.append(idx)
        children = tree.nodes[idx].children
        if children is not None:
            if len(children) != 2:
                return [f"node {idx} has {len(children)} children"]
            stack.extend(children)
    if sorted(seen) != list(range(len(tree.nodes))):
        return ["nodes unreachable from the root or reached twice"]
    leaves = sorted(i for i in seen if tree.nodes[i].children is None)
    if leaves != sorted(tree.leaf_indices):
        return ["leaf nodes differ from leaf_indices"]
    return []


def ll_problems(tree, ll, config) -> list[str]:
    """The returned log-likelihood must be the tree's own."""
    if ll is None or not math.isfinite(ll):
        return [f"log-likelihood {ll!r} is not finite"]
    recomputed = tree_log_likelihood(tree, config)
    if abs(recomputed - ll) > LL_TOL:
        return [f"returned LL {ll!r} differs from the tree's LL {recomputed!r}"]
    return []


def check_event(event, tree, ll, config) -> list[str]:
    problems = tree_problems(tree, event.n_leaves)
    return problems or ll_problems(tree, ll, config)


def search_problems(event, tree, ll, config) -> list[str]:
    """MCTS must return a valid tree and reach at least its beam(5) seed."""
    problems = check_event(event, tree, ll, config)
    if problems:
        return problems
    _, beam_ll = planners.cluster_beam(event.leaves, 5, config)
    if ll < beam_ll - LL_TOL:
        return [f"MCTS LL {ll!r} below its beam(5) seed {beam_ll!r}"]
    return []


def exact_problems(event, tree, ll, counted: int, config) -> list[str]:
    """The optimum dominates greedy and beam(5), at the closed-form cost."""
    problems = check_event(event, tree, ll, config)
    if problems:
        return problems
    n = event.n_leaves
    expected = (3 ** n + 1) // 2 - 2 ** n
    if counted != expected:
        problems.append(f"counted {counted} evaluations, closed form gives {expected}")
    for name, (_, other) in (("greedy", planners.cluster_greedy(event.leaves, config)),
                             ("beam(5)", planners.cluster_beam(event.leaves, 5, config))):
        if ll < other - LL_TOL:
            problems.append(f"exact LL {ll!r} below {name} LL {other!r}")
    return problems


def structure(tree) -> str:
    """Merge structure as nested unordered leaf-position sets, written
    canonically so merge order and momentum bits do not change it."""
    position = {node: k for k, node in enumerate(tree.leaf_indices)}

    def canon(idx: int) -> str:
        children = tree.nodes[idx].children
        if children is None:
            return str(position[idx])
        return "(" + ",".join(sorted(canon(c) for c in children)) + ")"

    return canon(tree.root_index)


def fingerprint(results) -> str:
    """Hash of every (event id, tree structure), in the order produced."""
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.event.event_id}:{structure(r.tree) if r.tree is not None else '-'};".encode())
    return h.hexdigest()[:16]
