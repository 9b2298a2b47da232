import math

import numpy as np
import pytest
from scipy import integrate, stats

import jetclust as jc
from jetclust.rng import make_rng
from jetclust.shower import _PS_MEMO, EPS_MASS_SQ, LOG_DENSITY_FLOOR, ps_memo

from conftest import make_event


def test_invariant_mass_sq_examples():
    assert jc.invariant_mass_sq(jc.FourMomentum(2, 0, 0, 0)) == 4.0
    assert jc.invariant_mass_sq(jc.FourMomentum(1, 0, 0, 1)) == 0.0
    assert jc.invariant_mass_sq(jc.FourMomentum(5, 3, 0, 0)) == 16.0


def test_invariant_mass_sq_clamps_small_negative():
    p = jc.FourMomentum(1.0, math.sqrt(1.0 + 0.5 * EPS_MASS_SQ), 0.0, 0.0)
    assert jc.invariant_mass_sq(p) == 0.0


def test_invariant_mass_sq_rejects_spacelike():
    with pytest.raises(ValueError):
        jc.invariant_mass_sq(jc.FourMomentum(1.0, 2.0, 0.0, 0.0))


def test_density_value_at_zero():
    # closed form: log(lam/t_max) - 0 - log(1 - e^-lam)
    expected = math.log(1.0 / (1.0 - math.exp(-1.0)))
    assert jc.truncated_exp_log_density(0.0, 1.0, 1.0) == pytest.approx(expected, abs=1e-14)


def test_density_out_of_support():
    assert jc.truncated_exp_log_density(2.0, 1.0, 1.0) == LOG_DENSITY_FLOOR
    assert jc.truncated_exp_log_density(-0.5, 1.0, 1.0) == LOG_DENSITY_FLOOR


def test_density_rejects_bad_parameters():
    with pytest.raises(ValueError):
        jc.truncated_exp_log_density(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        jc.truncated_exp_log_density(0.5, 1.0, -2.0)


def test_density_normalization_by_quadrature():
    rng = make_rng(101)
    for _ in range(10):
        lam = float(rng.uniform(0.2, 5.0))
        t_max = float(rng.uniform(0.1, 50.0))
        total, err = integrate.quad(
            lambda t: math.exp(jc.truncated_exp_log_density(t, t_max, lam)),
            0.0, t_max)
        assert abs(total - 1.0) <= 1e-8


class _FixedUniform:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def test_sampler_inverse_cdf_edges():
    assert jc.sample_truncated_exp(3.0, 1.5, _FixedUniform(0.0)) == 0.0
    near_top = jc.sample_truncated_exp(3.0, 1.5, _FixedUniform(1.0 - 1e-14))
    assert near_top == pytest.approx(3.0, rel=1e-10)
    assert near_top <= 3.0


def test_sampler_matches_cdf_kolmogorov_smirnov():
    lam, t_max = 1.0, 1.0
    rng = make_rng(7)
    samples = [jc.sample_truncated_exp(t_max, lam, rng) for _ in range(100_000)]

    def cdf(t):
        t = np.clip(t, 0.0, t_max)
        return (1.0 - np.exp(-lam * t / t_max)) / (1.0 - np.exp(-lam))

    result = stats.kstest(samples, cdf)
    assert result.statistic < 0.01


def test_sampler_rejects_bad_parameters():
    with pytest.raises(ValueError):
        jc.sample_truncated_exp(0.0, 1.0, make_rng(0))
    with pytest.raises(ValueError):
        jc.sample_truncated_exp(1.0, 0.0, make_rng(0))


def test_two_body_symmetric_massless():
    a, b = jc.two_body_decay(jc.FourMomentum(2, 0, 0, 0), 0.0, 0.0, (0.0, 0.0, 1.0))
    assert a == jc.FourMomentum(1.0, 0.0, 0.0, 1.0)
    assert b == jc.FourMomentum(1.0, 0.0, 0.0, -1.0)


def test_two_body_one_massive_child():
    # E_a = (t_p + t_a - t_b) / (2 sqrt(t_p)) = 5/4, |p*| = 3/4
    a, b = jc.two_body_decay(jc.FourMomentum(2, 0, 0, 0), 1.0, 0.0, (0.0, 0.0, 1.0))
    assert a == jc.FourMomentum(1.25, 0.0, 0.0, 0.75)
    assert b == jc.FourMomentum(0.75, 0.0, 0.0, -0.75)


def test_two_body_rejects_overweight_children():
    with pytest.raises(ValueError):
        jc.two_body_decay(jc.FourMomentum(2, 0, 0, 0), 3.0, 2.0, (0.0, 0.0, 1.0))


def test_two_body_conservation_over_random_parents():
    rng = make_rng(23)
    for _ in range(1000):
        t_p = float(rng.uniform(1.0, 100.0))
        mom = rng.normal(0.0, 5.0, size=3)
        parent = jc.FourMomentum(math.sqrt(t_p + float(mom @ mom)), *mom)
        m = math.sqrt(t_p)
        sqrt_ta = rng.uniform(0.0, m)
        sqrt_tb = rng.uniform(0.0, m - sqrt_ta)
        cos_t = rng.uniform(-1.0, 1.0)
        phi = rng.uniform(0.0, 2 * math.pi)
        sin_t = math.sqrt(1.0 - cos_t**2)
        direction = (sin_t * math.cos(phi), sin_t * math.sin(phi), cos_t)
        a, b = jc.two_body_decay(parent, sqrt_ta**2, sqrt_tb**2, direction)
        total = a + b
        scale = max(abs(v) for v in parent.as_tuple())
        for got, want in zip(total.as_tuple(), parent.as_tuple()):
            assert abs(got - want) <= 1e-6 * max(scale, 1.0)
        assert jc.invariant_mass_sq(a) == pytest.approx(sqrt_ta**2, rel=1e-6, abs=1e-9)
        assert jc.invariant_mass_sq(b) == pytest.approx(sqrt_tb**2, rel=1e-6, abs=1e-9)


def test_shower_config_validation():
    with pytest.raises(ValueError):
        jc.ShowerConfig(lam=0.0, t_cut=1.0, root=jc.FourMomentum(5, 0, 0, 0)).validate()
    with pytest.raises(ValueError):
        jc.ShowerConfig(lam=1.0, t_cut=-1.0, root=jc.FourMomentum(5, 0, 0, 0)).validate()
    with pytest.raises(ValueError):
        # root below the cutoff: shower would be a single leaf
        jc.ShowerConfig(lam=1.0, t_cut=30.0, root=jc.FourMomentum(5, 0, 0, 0)).validate()


def test_shower_forced_single_splitting():
    # Root barely above the cutoff with large lam: children land below
    # t_cut almost surely, so nearly every tree has exactly two leaves.
    config = jc.ShowerConfig(lam=25.0, t_cut=1.0, root=jc.FourMomentum(math.sqrt(1.2), 0, 0, 0))
    counts = [jc.sample_shower(config, make_rng(11, k)).n_leaves for k in range(100)]
    assert all(c >= 2 for c in counts)
    assert sum(c == 2 for c in counts) >= 95


def test_shower_conserves_momentum(small_config):
    for k in range(1000):
        tree = jc.sample_shower(small_config, make_rng(31, k))
        total = tree.nodes[tree.leaf_indices[0]].momentum
        for idx in tree.leaf_indices[1:]:
            total = total + tree.nodes[idx].momentum
        root = tree.nodes[tree.root_index].momentum
        for got, want in zip(total.as_tuple(), root.as_tuple()):
            assert abs(got - want) <= 1e-6 * max(abs(want), 1.0)


def test_shower_internal_nodes_above_cut_leaves_below(small_config):
    for k in range(50):
        tree = jc.sample_shower(small_config, make_rng(37, k))
        for node in tree.nodes:
            if node.children is None:
                assert node.t < small_config.t_cut
            else:
                assert node.t >= small_config.t_cut
                ca, cb = node.children
                summed = tree.nodes[ca].momentum + tree.nodes[cb].momentum
                for got, want in zip(summed.as_tuple(), node.momentum.as_tuple()):
                    assert abs(got - want) <= 1e-6 * max(abs(want), 1.0)


# Band frozen from a one-off 10^4-tree run of an independent
# implementation of the mass recursion (kinematics skipped, PCG64 seed
# 20260811): mean 15.2585, sigma of the mean 0.03747.  The tolerance is
# 5 * sqrt(sigma_oracle^2 + sigma_test^2) with a 2000-tree test sample.
ORACLE_MEAN_LEAVES = 15.2585
ORACLE_BAND = 0.46


def test_shower_mean_leaf_count_in_precomputed_band():
    config = jc.ShowerConfig(lam=1.5, t_cut=1.0, root=jc.FourMomentum(25.0, 0.0, 0.0, 15.0))
    counts = [jc.sample_shower(config, make_rng(41, k)).n_leaves for k in range(2000)]
    assert abs(float(np.mean(counts)) - ORACLE_MEAN_LEAVES) < ORACLE_BAND


def test_shower_bit_identical_under_fixed_seed(small_config):
    t1 = jc.sample_shower(small_config, make_rng(5, 0))
    t2 = jc.sample_shower(small_config, make_rng(5, 0))
    assert len(t1.nodes) == len(t2.nodes)
    for a, b in zip(t1.nodes, t2.nodes):
        assert a.momentum == b.momentum
        assert a.children == b.children
        assert a.split_ll == b.split_ll
    assert t1.leaf_indices == t2.leaf_indices


def test_splitting_symmetric_example():
    config = jc.ShowerConfig(lam=1.0, t_cut=1.0, root=jc.FourMomentum(25, 0, 0, 15))
    s = jc.Splitting.from_children(jc.FourMomentum(1, 0, 0, 1), jc.FourMomentum(1, 0, 0, -1))
    # t_p = 4, t_L = t_R = 0: both factors are f(0 | 4, 1), plus the
    # isotropic angular factor.
    expected = 2.0 * math.log(1.0 / (4.0 * (1.0 - math.exp(-1.0)))) - math.log(4.0 * math.pi)
    assert jc.splitting_log_likelihood(s, config) == pytest.approx(expected, abs=1e-12)


def _random_timelike(rng):
    mom = rng.normal(0.0, 1.0, 3)
    t = rng.uniform(0.0, 4.0)
    return jc.FourMomentum(math.sqrt(t + float(mom @ mom)), *mom)


def test_splitting_child_swap_is_bit_identical(small_config):
    rng = make_rng(47)
    for _ in range(200):
        a = _random_timelike(rng)
        b = _random_timelike(rng)
        ab = jc.splitting_log_likelihood(jc.Splitting.from_children(a, b), small_config)
        ba = jc.splitting_log_likelihood(jc.Splitting.from_children(b, a), small_config)
        assert ab == ba


def test_splitting_rejects_invalid_momenta(small_config):
    bad = jc.FourMomentum(-1.0, 0.0, 0.0, 0.0)
    ok = jc.FourMomentum(2.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        jc.splitting_log_likelihood(jc.Splitting.from_children(bad, ok), small_config)


def test_splitting_matches_sampler_recorded_density(small_config):
    # The sampler records the log-density of its own draws; recomputing
    # p_s from the stored child momenta must agree.
    for k in range(100):
        tree = jc.sample_shower(small_config, make_rng(53, k))
        for node in tree.nodes:
            if node.children is None:
                continue
            ca, cb = node.children
            s = jc.Splitting.from_children(tree.nodes[ca].momentum, tree.nodes[cb].momentum)
            recomputed = jc.splitting_log_likelihood(s, small_config)
            assert abs(recomputed - node.split_ll) <= 1e-9


def test_splitting_increments_cost_counter(small_config):
    s = jc.Splitting.from_children(jc.FourMomentum(1, 0, 0, 1), jc.FourMomentum(1, 0, 0, -1))
    before = jc.PS_EVALUATIONS.count
    jc.splitting_log_likelihood(s, small_config)
    jc.splitting_log_likelihood(s, small_config)
    assert jc.PS_EVALUATIONS.count == before + 2


def _memo_pairs(config):
    # Leaf pairs and sibling pairs of a few events, plus the degenerate
    # collinear massless merge.
    pairs = [(jc.FourMomentum(1, 0, 0, 1), jc.FourMomentum(2, 0, 0, 2))]
    for k in range(5):
        tree = jc.sample_shower(config, make_rng(71, k))
        leaves = tree.leaf_momenta()
        pairs += [(a, b) for i, a in enumerate(leaves) for b in leaves[i + 1:]]
        pairs += [(tree.nodes[ca].momentum, tree.nodes[cb].momentum)
                  for ca, cb in (n.children for n in tree.nodes if n.children)]
    return pairs


def test_ps_memo_values_are_bit_identical(small_config):
    other = jc.ShowerConfig(lam=3.0, t_cut=1.0, root=small_config.root)
    pairs = _memo_pairs(small_config)

    def ll(a, b, config):
        return jc.splitting_log_likelihood(jc.Splitting.from_children(a, b), config).hex()

    plain = [(ll(a, b, c), ll(b, a, c)) for a, b in pairs for c in (small_config, other)]
    with ps_memo():
        first = [(ll(a, b, c), ll(b, a, c)) for a, b in pairs for c in (small_config, other)]
        swapped = [(ll(b, a, c), ll(a, b, c)) for a, b in pairs for c in (small_config, other)]
    assert first == plain
    assert swapped == [(y, x) for x, y in plain]
    assert all(x == y for x, y in plain)


def test_ps_memo_hit_is_still_counted(small_config):
    s = jc.Splitting.from_children(jc.FourMomentum(1, 0, 0, 1), jc.FourMomentum(2, 1, 0, 0))
    swapped = jc.Splitting.from_children(s.child_b, s.child_a)
    with ps_memo() as memo:
        before = jc.PS_EVALUATIONS.count
        jc.splitting_log_likelihood(s, small_config)
        assert jc.PS_EVALUATIONS.count == before + 1
        assert len(memo) == 2  # stored under both child orders
        for k, query in enumerate((s, swapped, s), start=2):
            jc.splitting_log_likelihood(query, small_config)
            assert jc.PS_EVALUATIONS.count == before + k
        assert len(memo) == 2


def test_ps_memo_exists_only_inside_a_scope(small_config):
    s = jc.Splitting.from_children(jc.FourMomentum(1, 0, 0, 1), jc.FourMomentum(2, 1, 0, 0))
    assert _PS_MEMO.get() is None
    with ps_memo() as memo:
        assert _PS_MEMO.get() is memo
        jc.splitting_log_likelihood(s, small_config)
    assert _PS_MEMO.get() is None
    with pytest.raises(RuntimeError):
        with ps_memo():
            raise RuntimeError("inside the scope")
    assert _PS_MEMO.get() is None
    with ps_memo() as fresh:
        assert fresh == {} and fresh is not memo


def test_ps_memo_nested_scope_reuses_outer(small_config):
    s = jc.Splitting.from_children(jc.FourMomentum(1, 0, 0, 1), jc.FourMomentum(2, 1, 0, 0))
    with ps_memo() as outer:
        with ps_memo() as inner:
            assert inner is outer
            jc.splitting_log_likelihood(s, small_config)
        assert _PS_MEMO.get() is outer
        assert len(outer) == 2
    assert _PS_MEMO.get() is None


def test_tree_log_likelihood_two_leaf_tree(small_config):
    tree = make_event(small_config, seed=61, n_leaves=2)
    s = jc.Splitting.from_children(*[tree.nodes[i].momentum for i in tree.leaf_indices])
    assert jc.tree_log_likelihood(tree, small_config) == pytest.approx(
        jc.splitting_log_likelihood(s, small_config), abs=1e-12)


def test_tree_log_likelihood_matches_recorded_sum(small_config):
    for k in range(100):
        tree = jc.sample_shower(small_config, make_rng(67, k))
        recorded = sum(n.split_ll for n in tree.nodes if n.split_ll is not None)
        assert abs(jc.tree_log_likelihood(tree, small_config) - recorded) <= 1e-9
