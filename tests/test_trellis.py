import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetclust as jc
from jetclust import trellis
from jetclust.env import leaf_sets
from jetclust.rng import make_rng
from jetclust.shower import Splitting
from jetclust.trellis import _fill_table

from conftest import make_event


def test_two_leaf_event_is_the_unique_tree(small_config):
    tree = make_event(small_config, seed=3, n_leaves=2)
    leaves = tree.leaf_momenta()
    jc.PS_EVALUATIONS.reset()
    ll, mle_tree = jc.exact_mle(leaves, small_config)
    assert jc.PS_EVALUATIONS.count == 1
    s = jc.Splitting(*leaves)
    assert ll == pytest.approx(jc.splitting_log_likelihood(s, small_config), abs=1e-12)
    assert mle_tree.n_leaves == 2


@pytest.mark.parametrize("n,expected", [(3, 3), (4, 15), (5, 105), (6, 945)])
def test_enumeration_counts_double_factorial(small_config, n, expected):
    leaves = make_event(small_config, seed=5, n_leaves=n).leaf_momenta()
    _, count = jc.enumerate_all_trees(leaves, small_config)
    assert count == expected


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_exact_mle_matches_enumeration(small_config, n):
    leaves = make_event(small_config, seed=7, n_leaves=n).leaf_momenta()
    mle_ll, tree = jc.exact_mle(leaves, small_config)
    enum_ll, _ = jc.enumerate_all_trees(leaves, small_config)
    assert abs(mle_ll - enum_ll) <= 1e-9
    assert abs(jc.tree_log_likelihood(tree, small_config) - mle_ll) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_evaluation_count_closed_form(small_config, n, monkeypatch):
    # Every counted evaluation is one call of the name trellis imported,
    # with a real Splitting: the traced benchmark wraps that name.
    leaves = make_event(small_config, seed=11, n_leaves=n).leaf_momenta()
    kernel = trellis.splitting_log_likelihood
    queries = []

    def spy(s, config):
        queries.append(type(s))
        return kernel(s, config)

    monkeypatch.setattr(trellis, "splitting_log_likelihood", spy)
    jc.PS_EVALUATIONS.reset()
    jc.exact_mle(leaves, small_config)
    assert len(queries) == jc.PS_EVALUATIONS.count == (3**n + 1) // 2 - 2**n
    assert set(queries) == {jc.Splitting}


def test_guards(small_config):
    leaves = make_event(small_config, seed=13, n_leaves=5).leaf_momenta()
    jc.PS_EVALUATIONS.reset()
    with pytest.raises(ValueError, match="DEFAULT_N_MAX=16"):
        jc.exact_mle(leaves * 4, small_config)
    assert jc.PS_EVALUATIONS.count == 0  # the guard raises before any fill
    with pytest.raises(ValueError):
        jc.enumerate_all_trees(leaves * 2, small_config)
    with pytest.raises(ValueError):
        jc.exact_mle(leaves[:1], small_config)


def test_mle_dominates_planners(small_config, oracle_events):
    for event in oracle_events[:15]:
        mle_ll, _ = jc.exact_mle(event.leaves, small_config)
        _, greedy_ll = jc.cluster_greedy(event.leaves, small_config)
        _, random_ll = jc.cluster_random(event.leaves, small_config, make_rng(17, event.event_id))
        assert greedy_ll <= mle_ll + 1e-9
        assert random_ll <= mle_ll + 1e-9
        assert event.truth_ll <= mle_ll + 1e-9


def test_subset_momentum_sums_consistent(small_config):
    leaves = make_event(small_config, seed=19, n_leaves=5).leaf_momenta()
    _, best, psum = _fill_table(leaves, small_config)
    n = len(leaves)
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            continue
        a = best[mask]
        summed = psum[a] + psum[mask ^ a]
        for got, want in zip(summed.as_tuple(), psum[mask].as_tuple()):
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0) + 1e-12


def test_mle_tree_structure_is_valid(small_config):
    leaves = make_event(small_config, seed=23, n_leaves=6).leaf_momenta()
    _, tree = jc.exact_mle(leaves, small_config)
    assert tree.leaf_indices == list(range(6))
    assert len(tree.internal_indices()) == 5
    for idx in tree.internal_indices():
        ca, cb = tree.nodes[idx].children
        assert tree.nodes[ca].parent == idx
        assert tree.nodes[cb].parent == idx


MEDIUM_CONFIG = jc.ShowerConfig(
    lam=1.5, t_cut=1.0, root=jc.FourMomentum(12.0, 0.0, 0.0, 4.0), rng_seed=2)

# (config, make_event seed, leaves, LL as float.hex, root_index,
#  (children, parent) per node), captured before exact_mle built its tree
# through tree_from_history.
MLE_TREE_GOLDEN = [
    ("small", 31, 6, "-0x1.0a1efbfa717d4p+4", 10,
     [(None, 6), (None, 7), (None, 7), (None, 6), (None, 8), (None, 9), ((0, 3), 10), ((1, 2), 8),
      ((7, 4), 9), ((8, 5), 10), ((6, 9), None)]),
    ("small", 37, 7, "-0x1.0b63c918fb24fp+3", 12,
     [(None, 9), (None, 8), (None, 11), (None, 7), (None, 7), (None, 10), (None, 10), ((3, 4), 8),
      ((1, 7), 9), ((0, 8), 12), ((5, 6), 11), ((2, 10), 12), ((9, 11), None)]),
    ("small", 41, 8, "-0x1.5dc9ec0324241p+3", 14,
     [(None, 8), (None, 10), (None, 10), (None, 9), (None, 8), (None, 11), (None, 12), (None, 12),
      ((0, 4), 9), ((8, 3), 14), ((1, 2), 11), ((10, 5), 13), ((6, 7), 13), ((11, 12), 14),
      ((9, 13), None)]),
    ("medium", 43, 9, "-0x1.0e3e4c78697a3p+5", 16,
     [(None, 11), (None, 10), (None, 14), (None, 9), (None, 12), (None, 15), (None, 9), (None, 12),
      (None, 14), ((3, 6), 10), ((1, 9), 11), ((0, 10), 13), ((4, 7), 13), ((11, 12), 16),
      ((2, 8), 15), ((14, 5), 16), ((13, 15), None)]),
    ("medium", 47, 10, "-0x1.01ada1526affap+5", 18,
     [(None, 12), (None, 15), (None, 13), (None, 15), (None, 13), (None, 10), (None, 16), (None, 16),
      (None, 10), (None, 11), ((5, 8), 11), ((10, 9), 12), ((0, 11), 14), ((2, 4), 14),
      ((12, 13), 18), ((1, 3), 17), ((6, 7), 17), ((15, 16), 18), ((14, 17), None)]),
]


@pytest.mark.parametrize("n", [2, 3, 5, 8, 10])
def test_exact_mle_history_replays_the_table_splits_through_step(small_config, medium_events, n):
    # Env and trellis name a cluster by the same leaf bitmask: each merge of
    # the MLE tree, replayed through step, joins best[m] and m ^ best[m].
    config, events = (small_config, None) if n <= 8 else medium_events
    leaves = (make_event(small_config, seed=7, n_leaves=n).leaf_momenta() if events is None
              else next(e.leaves for e in events if e.n_leaves == n))
    _, best, _ = _fill_table(leaves, config)
    _, tree = jc.exact_mle(leaves, config)
    node_mask = [1 << k for k in range(n)]  # leaf bitmask of each tree node
    for node in tree.nodes[n:]:
        node_mask.append(node_mask[node.children[0]] | node_mask[node.children[1]])
    state = jc.reset(leaves)
    for node in tree.nodes[n:]:
        masks = leaf_sets(state)
        i, j = sorted(masks.index(node_mask[child]) for child in node.children)
        m = masks[i] | masks[j]
        assert masks[i] & masks[j] == 0
        assert {masks[i], masks[j]} == {best[m], m ^ best[m]}
        state = jc.step(state, jc.Action(i, j), config)
    assert leaf_sets(state) == ((1 << n) - 1,)
    assert [set(h) for h in state.history] == \
        [{node_mask[a], node_mask[b]} for a, b in (node.children for node in tree.nodes[n:])]


@pytest.mark.parametrize("name,seed,n,ll_hex,root,structure", MLE_TREE_GOLDEN,
                         ids=[f"{g[0]}-seed{g[1]}-n{g[2]}" for g in MLE_TREE_GOLDEN])
def test_exact_mle_tree_golden(small_config, name, seed, n, ll_hex, root, structure):
    config = small_config if name == "small" else MEDIUM_CONFIG
    leaves = make_event(config, seed, n_leaves=n).leaf_momenta()
    ll, tree = jc.exact_mle(leaves, config)
    assert ll.hex() == ll_hex
    assert tree.root_index == root
    assert [(node.children, node.parent) for node in tree.nodes] == structure
    assert tree.leaf_indices == list(range(n))
    for node in tree.nodes[n:]:
        ca, cb = node.children
        assert node.momentum == tree.nodes[ca].momentum + tree.nodes[cb].momentum


def _fill_table_oracle(leaves, config):
    """The scalar table fill as it was before each mask's best value was
    seeded from its first split: kept as the oracle for the split order
    and the first-maximum rule."""
    n = len(leaves)
    size = 1 << n
    psum = [jc.FourMomentum(0.0, 0.0, 0.0, 0.0)] * size
    mll = [0.0] * size
    best = [0] * size
    for k in range(n):
        psum[1 << k] = leaves[k]
    for mask in range(1, size):
        if mask & (mask - 1) == 0:
            continue
        low = mask & -mask
        rest = mask ^ low
        psum[mask] = psum[low] + psum[rest]
        best_val = None
        best_split = 0
        b = rest
        while True:
            b = (b - 1) & rest
            a_mask = low | b
            c_mask = mask ^ a_mask
            s = Splitting(psum[a_mask], psum[c_mask])
            val = jc.splitting_log_likelihood(s, config) + mll[a_mask] + mll[c_mask]
            if best_val is None or val > best_val:
                best_val = val
                best_split = a_mask
            if b == 0:
                break
        mll[mask] = best_val
        best[mask] = best_split
    return mll, best, psum


def _desk_leaves(seed, lo, hi):
    """Leaves of the first desk event with lo-hi leaves in the stream of
    `seed`; about one desk event in eleven has 6-10."""
    for k in range(400):
        tree = jc.sample_shower(jc.DESK_CONFIG, make_rng(seed, k))
        if lo <= tree.n_leaves <= hi:
            return tree.leaf_momenta()
    raise RuntimeError(f"no desk event of {lo}-{hi} leaves for seed {seed}")


def _assert_table_matches_the_oracle(leaves):
    mll, best, psum = _fill_table(leaves, jc.DESK_CONFIG)
    want_mll, want_best, want_psum = _fill_table_oracle(leaves, jc.DESK_CONFIG)
    assert [v.hex() for v in mll] == [v.hex() for v in want_mll]
    assert best == want_best
    assert psum == want_psum


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_fill_table_matches_the_scalar_oracle_on_random_desk_events(seed):
    _assert_table_matches_the_oracle(_desk_leaves(seed, 6, 10))


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(3, 5))
def test_fill_table_keeps_the_first_maximum_among_ties(seed, k):
    # Every leaf twice: swapping the two copies of a leaf gives a split
    # of the same value bit for bit, so many masks have tied splits and
    # the first one in split order must win.
    doubled = [p for p in _desk_leaves(seed, 6, 10)[:k] for _ in range(2)]
    _assert_table_matches_the_oracle(doubled)
    # fresh copies: the oracle's kernel queries start from empty slots
    _assert_table_matches_the_oracle([jc.FourMomentum(*p.as_tuple()) for p in doubled])


def _most_partitions(n):
    """max over k of the Stirling number S(n, k): the most partitions of
    n leaves into k clusters that one beam level can hold."""
    row = [1]  # S(0, 0)
    for m in range(1, n + 1):
        row = [0] + [k * (row[k] if k < m else 0) + row[k - 1] for k in range(1, m + 1)]
    return max(row)


def _assert_saturated_beam_is_the_mle(leaves):
    """cluster_beam at a width that prunes nothing scores as exact_mle.
    A beam level collapses states to distinct partitions into leaf
    bitmasks, which is lossless because future rewards depend only on the
    current clusters; that is why a width of _most_partitions(n) keeps
    every partition and makes the beam a DP over partitions.  It shares
    the kernel with the trellis, but neither its subset table nor its
    order of sums."""
    tree, ll = jc.cluster_beam(leaves, _most_partitions(len(leaves)), jc.DESK_CONFIG)
    mle_ll, _ = jc.exact_mle(leaves, jc.DESK_CONFIG)
    assert abs(ll - mle_ll) <= 1e-9
    assert abs(jc.tree_log_likelihood(tree, jc.DESK_CONFIG) - ll) <= 1e-9


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_saturated_beam_equals_the_mle_at_eight_leaves(seed):
    """An oracle for the trellis past enumeration's 7 leaves: 8 leaves of
    a desk event, about 0.2 s each."""
    _assert_saturated_beam_is_the_mle(_desk_leaves(seed, 8, 100)[:8])


def test_saturated_beam_equals_the_mle_at_nine_leaves():
    assert [_most_partitions(n) for n in (3, 8, 9)] == [3, 1701, 7770]
    _assert_saturated_beam_is_the_mle(_desk_leaves(0, 9, 100)[:9])
