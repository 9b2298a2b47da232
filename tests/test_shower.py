import contextlib
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import jetclust as jc
from jetclust import shower
from jetclust.costs import CostCounter
from jetclust.rng import make_rng
from jetclust.shower import (
    _PS_MEMO,
    EPS_MASS_SQ,
    LOG_DENSITY_FLOOR,
    _unordered_pair_log_density,
    invariant_mass_sq_rows,
    ps_memo,
)

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
    # within the support's relative tolerance below 0, t scores as t = 0
    at_zero = jc.truncated_exp_log_density(0.0, 1.0, 1.0)
    assert jc.truncated_exp_log_density(-1e-13, 1.0, 1.0).hex() == at_zero.hex()


def test_density_rejects_bad_parameters():
    with pytest.raises(ValueError):
        jc.truncated_exp_log_density(0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        jc.truncated_exp_log_density(0.5, 1.0, -2.0)


@pytest.mark.parametrize("t_max, lam, name", [
    (math.nan, 1.0, "t_max"), (math.inf, 1.0, "t_max"), (1.0, math.nan, "lam"), (1.0, math.inf, "lam"),
], ids=["nan-t_max", "inf-t_max", "nan-lam", "inf-lam"])
def test_density_rejects_a_non_finite_scale(t_max, lam, name):
    # NaN passes a `<= 0.0` check, and inf gives an infinite or NaN density.
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0, got {t_max if name == 't_max' else lam}"):
        jc.truncated_exp_log_density(0.5, t_max, lam)


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


@pytest.mark.parametrize("t_max, lam, name", [
    (math.nan, 1.0, "t_max"), (math.inf, 1.0, "t_max"), (1.0, math.nan, "lam"), (1.0, math.inf, "lam"),
], ids=["nan-t_max", "inf-t_max", "nan-lam", "inf-lam"])
def test_sampler_rejects_a_non_finite_scale(t_max, lam, name):
    with pytest.raises(ValueError, match=f"{name} must be finite and > 0, got {t_max if name == 't_max' else lam}"):
        jc.sample_truncated_exp(t_max, lam, make_rng(0))


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
    with pytest.raises(ValueError, match="parent must be massive"):
        jc.two_body_decay(jc.FourMomentum(2, 0, 0, 2), 0.0, 0.0, (0.0, 0.0, 1.0))


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
        jc.ShowerConfig(lam=0.0, t_cut=1.0, root=jc.FourMomentum(5, 0, 0, 0))
    with pytest.raises(ValueError):
        jc.ShowerConfig(lam=1.0, t_cut=-1.0, root=jc.FourMomentum(5, 0, 0, 0))
    with pytest.raises(ValueError):
        # root below the cutoff: shower would be a single leaf
        jc.ShowerConfig(lam=1.0, t_cut=30.0, root=jc.FourMomentum(5, 0, 0, 0))
    root = jc.FourMomentum(5, 0, 0, 0)
    for bad in (dict(lam=math.nan), dict(lam=math.inf), dict(t_cut=math.nan),
                dict(root=jc.FourMomentum(5, math.nan, 0, 0)), dict(root=jc.FourMomentum(math.inf, 0, 0, 0))):
        with pytest.raises(ValueError, match="finite"):  # NaN passes every comparison check
            jc.ShowerConfig(**{"lam": 1.0, "t_cut": 1.0, "root": root, **bad})
    # Up to 2**-54 exp(-lam) rounds to 1 and the normaliser log1p(-exp(-lam))
    # does not exist; at 2**-53 the density still normalises.
    for tiny in (1e-300, 5e-324, 2.0 ** -54):
        with pytest.raises(ValueError, match=f"lam {tiny!r} is too small"):
            jc.ShowerConfig(lam=tiny, t_cut=1.0, root=root)
    jc.ShowerConfig(lam=2.0 ** -53, t_cut=1.0, root=root)
    assert math.isfinite(jc.truncated_exp_log_density(0.5, 1.0, 2.0 ** -53))


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
    s = jc.Splitting(jc.FourMomentum(1, 0, 0, 1), jc.FourMomentum(1, 0, 0, -1))
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
        ab = jc.splitting_log_likelihood(jc.Splitting(a, b), small_config)
        ba = jc.splitting_log_likelihood(jc.Splitting(b, a), small_config)
        assert ab == ba


def test_splitting_rejects_invalid_momenta(small_config):
    bad = jc.FourMomentum(-1.0, 0.0, 0.0, 0.0)
    ok = jc.FourMomentum(2.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        jc.splitting_log_likelihood(jc.Splitting(bad, ok), small_config)


def test_splitting_matches_sampler_recorded_density(small_config):
    # The sampler records the log-density of its own draws; recomputing
    # p_s from the stored child momenta must agree.
    for k in range(100):
        tree = jc.sample_shower(small_config, make_rng(53, k))
        for node in tree.nodes:
            if node.children is None:
                continue
            ca, cb = node.children
            s = jc.Splitting(tree.nodes[ca].momentum, tree.nodes[cb].momentum)
            recomputed = jc.splitting_log_likelihood(s, small_config)
            assert abs(recomputed - node.split_ll) <= 1e-9


def test_splitting_increments_cost_counter(small_config):
    s = jc.Splitting(jc.FourMomentum(1, 0, 0, 1), jc.FourMomentum(1, 0, 0, -1))
    before = jc.PS_EVALUATIONS.count
    jc.splitting_log_likelihood(s, small_config)
    jc.splitting_log_likelihood(s, small_config)
    assert jc.PS_EVALUATIONS.count == before + 2


def test_cost_counter_increment_and_reset():
    counter = CostCounter()
    assert counter.count == 0
    counter.increment()
    counter.increment(5)
    assert counter.count == 6
    counter.reset()
    assert counter.count == 0
    counter.increment(2)
    assert counter.count == 2


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
        return jc.splitting_log_likelihood(jc.Splitting(a, b), config).hex()

    plain = [(ll(a, b, c), ll(b, a, c)) for a, b in pairs for c in (small_config, other)]
    with ps_memo():
        first = [(ll(a, b, c), ll(b, a, c)) for a, b in pairs for c in (small_config, other)]
        swapped = [(ll(b, a, c), ll(a, b, c)) for a, b in pairs for c in (small_config, other)]
    assert first == plain
    assert swapped == [(y, x) for x, y in plain]
    assert all(x == y for x, y in plain)


def test_ps_memo_hit_is_still_counted(small_config):
    s = jc.Splitting(jc.FourMomentum(1, 0, 0, 1), jc.FourMomentum(2, 1, 0, 0))
    swapped = jc.Splitting(s.child_b, s.child_a)
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
    s = jc.Splitting(jc.FourMomentum(1, 0, 0, 1), jc.FourMomentum(2, 1, 0, 0))
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


def test_ps_memo_nested_scope_is_fresh(small_config):
    s = jc.Splitting(jc.FourMomentum(1, 0, 0, 1), jc.FourMomentum(2, 1, 0, 0))
    with ps_memo() as outer:
        jc.splitting_log_likelihood(s, small_config)
        with ps_memo() as inner:
            assert inner == {} and inner is not outer
            assert _PS_MEMO.get() is inner
            jc.splitting_log_likelihood(s, small_config)
            assert len(inner) == 2
        assert _PS_MEMO.get() is outer
        assert len(outer) == 2
    assert _PS_MEMO.get() is None


def test_memo_key_slot_is_invisible_to_value_semantics(small_config):
    keyed, fresh = jc.FourMomentum(2.0, 0.5, -0.25, 1.0), jc.FourMomentum(2.0, 0.5, -0.25, 1.0)
    with ps_memo():
        jc.splitting_log_likelihood(jc.Splitting(keyed, jc.FourMomentum(3.0, 0.0, 1.0, 0.0)),
                                    small_config)
    _assert_slot_is_invisible(keyed, fresh, "_k")


def test_memo_key_is_left_empty_outside_a_scope_and_by_addition(small_config):
    a, b = jc.FourMomentum(2.0, 0.5, -0.25, 1.0), jc.FourMomentum(3.0, 0.0, 1.0, 0.0)
    jc.splitting_log_likelihood(jc.Splitting(a, b), small_config)
    assert a._k is None and b._k is None
    with ps_memo():
        jc.splitting_log_likelihood(jc.Splitting(a, b), small_config)
    assert a._k is not None and b._k is not None
    assert (a + b)._k is None


def test_equal_momenta_that_are_separate_objects_share_a_memo_entry(small_config):
    pair = ((2.0, 0.5, -0.25, 1.0), (3.0, 0.0, 1.0, 0.0))
    with ps_memo() as memo:
        values = []
        for _ in range(3):
            a, b = (jc.FourMomentum(*p) for p in pair)
            before = jc.PS_EVALUATIONS.count
            values.append(jc.splitting_log_likelihood(jc.Splitting(a, b), small_config).hex())
            values.append(jc.splitting_log_likelihood(jc.Splitting(b, a), small_config).hex())
            assert jc.PS_EVALUATIONS.count == before + 2
            assert len(memo) == 2
    assert len(set(values)) == 1


def _signed_zeros(components):
    """Every copy of the components with its zeros' signs flipped."""
    zeros = [i for i, c in enumerate(components) if c == 0.0]
    for signs in range(1 << len(zeros)):
        flipped = list(components)
        for bit, i in enumerate(zeros):
            flipped[i] = -0.0 if signs >> bit & 1 else 0.0
        yield jc.FourMomentum(*flipped)


@pytest.mark.parametrize("a,b", [
    ((2.0, 0.0, 0.5, 1.0), (3.0, 0.0, 0.0, -1.0)),
    ((1.0, 0.0, 0.0, 1.0), (2.0, 0.0, 0.0, 0.0)),  # a massless child
    ((1.0, 0.0, 0.0, 1.0), (2.0, 0.0, 0.0, 2.0)),  # the degenerate collinear merge
])
def test_signed_zeros_are_separate_keys_with_the_same_value(a, b, small_config):
    expected = jc.splitting_log_likelihood(jc.Splitting(jc.FourMomentum(*a), jc.FourMomentum(*b)),
                                           small_config).hex()
    for memo in (False, True):
        with ps_memo() if memo else contextlib.nullcontext():
            keys = set()
            for pa in _signed_zeros(a):
                for pb in _signed_zeros(b):
                    for s in (jc.Splitting(pa, pb), jc.Splitting(pb, pa)):
                        before = jc.PS_EVALUATIONS.count
                        assert jc.splitting_log_likelihood(s, small_config).hex() == expected
                        assert jc.PS_EVALUATIONS.count == before + 1
                    keys.update((pa._k, pb._k))
        if memo:
            n_variants = sum(1 for _ in _signed_zeros(a)) + sum(1 for _ in _signed_zeros(b))
            assert len(keys) == n_variants
        else:
            assert keys == {None}


@pytest.mark.parametrize("a,b,message", [
    ((2.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 0.0), "non-negative"),
    ((2.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 2.0), "spacelike"),
])
def test_an_invalid_child_raises_on_every_query_in_a_scope(a, b, message, small_config):
    with ps_memo() as memo:
        for _ in range(3):
            pa, pb = jc.FourMomentum(*a), jc.FourMomentum(*b)
            for s in (jc.Splitting(pa, pb), jc.Splitting(pb, pa), jc.Splitting(pa, pb)):
                before = jc.PS_EVALUATIONS.count
                with pytest.raises(ValueError, match=message):
                    jc.splitting_log_likelihood(s, small_config)
                assert jc.PS_EVALUATIONS.count == before + 1
        assert memo == {}


def test_tree_log_likelihood_two_leaf_tree(small_config):
    tree = make_event(small_config, seed=61, n_leaves=2)
    s = jc.Splitting(*[tree.nodes[i].momentum for i in tree.leaf_indices])
    assert jc.tree_log_likelihood(tree, small_config) == pytest.approx(
        jc.splitting_log_likelihood(s, small_config), abs=1e-12)


def test_tree_log_likelihood_matches_recorded_sum(small_config):
    for k in range(100):
        tree = jc.sample_shower(small_config, make_rng(67, k))
        recorded = sum(n.split_ll for n in tree.nodes if n.split_ll is not None)
        assert abs(jc.tree_log_likelihood(tree, small_config) - recorded) <= 1e-9


# ---------------------------------------------------------------------------
# golden kernel values
# ---------------------------------------------------------------------------

# (child a, child b, log p_s at lam 1.5, log p_s at lam 0.7), momenta and
# values as float.hex, captured before the kernel was rewritten for speed.
# Rows 1-32: leaf, sibling and cluster pairs of desk-config and light
# events.  Then massless back-to-back, equal masses, int components, a
# pair with the desk root, a heavier child above t_p (outside the support,
# then within its tolerance), a lighter child clamped from spacelike,
# bound = 0 twice, and t_p = 0 three times.
GOLDEN_KERNEL = [
    (('0x1.4988d6080eb79p+1', '0x1.75b89168e849cp-3', '-0x1.0126754e53c12p+0', '0x1.1f81702b7fa07p+1'),
     ('0x1.1b2c936d0f017p+0', '-0x1.30523d766db0cp-4', '-0x1.69684b2f0bfe0p-1', '0x1.afc6541618d84p-1'),
     '0x1.f06ae53b1bb50p-3', '0x1.1e625d8fa4340p-4'),
    (('0x1.424879936c6f3p+0', '0x1.430d70a2fc770p-3', '0x1.cc20fd3e06529p-4', '0x1.3783ea94b7246p+0'),
     ('0x1.197ffab8f4bd8p+1', '-0x1.f82c826948a26p-3', '-0x1.07fa4471b85d1p-1', '0x1.e39b9c025b72dp+0'),
     '-0x1.a206aecbaf6b8p+0', '-0x1.b7eda0e66b287p+0'),
    (('0x1.d71f1fbe96384p+1', '0x1.bb1ee55b62e2cp-4', '-0x1.b5da9ae5d9c02p+0', '0x1.8b73053105d68p+1'),
     ('0x1.3380e06a6989ep+1', '-0x1.2790eefeac517p-2', '-0x1.1c748386c9dc0p-1', '0x1.0a9a77b6db63fp+1'),
     '-0x1.268bbd98ecadep+2', '-0x1.222a1cb449a02p+2'),
    (('0x1.d244b6cdd2cebp+3', '-0x1.46a0a99b98977p+0', '-0x1.a1dd75a129226p+1', '0x1.eea6c0aab6fc0p+2'),
     ('0x1.4dbb49322d316p+3', '0x1.46a0a99b98977p+0', '0x1.a1dd75a129226p+1', '0x1.d1593f5549041p+2'),
     '-0x1.9d3c6bb45d72ep+3', '-0x1.987b600421a52p+3'),
    (('0x1.8080ac2f08ed2p+0', '-0x1.17eae9555010dp+0', '0x1.0da83a0ef8824p-4', '0x1.11884282be594p-2'),
     ('0x1.176732344d12dp+0', '-0x1.0656f187ecc6ap+0', '0x1.5f9bb91f3242fp-2', '0x1.2795ff1031262p-5'),
     '-0x1.12fb4eab6de4ep+0', '-0x1.3b2b73f7397a5p+0'),
    (('0x1.d0a11f5f096fbp+1', '0x1.5d9bfa1a1c625p+0', '0x1.60271056a963fp+1', '0x1.de99a8c211d33p+0'),
     ('0x1.16eca4e5f0179p+0', '0x1.cfd3ee806c4cap-3', '-0x1.101e261179298p-2', '0x1.32b3e879f1412p-1'),
     '-0x1.2fc664f12c328p+2', '-0x1.516b26ee32d00p+2'),
    (('0x1.cf8d325b3874ep+1', '-0x1.c08551367bc98p-3', '0x1.c1b369f0ba8dbp-2', '0x1.bde3b55184554p+1'),
     ('0x1.7459548fb3824p+0', '-0x1.7cdfae5a3a106p-1', '-0x1.02c2ef5695624p-2', '0x1.2d3542c502d16p+0'),
     '-0x1.592f8d0429917p+1', '-0x1.863240c04f5f0p+1'),
    (('0x1.d57fdae900017p+0', '0x1.9f28362e3b920p+0', '0x1.da6d2ac63e14ep-2', '-0x1.760a1cfdfb5a0p-7'),
     ('0x1.9603eaa8e3fe2p+1', '-0x1.89a5cd991d490p-1', '-0x1.26eefd4c909b2p-1', '0x1.7806437d3a733p+1'),
     '-0x1.9cdacd2962f37p+2', '-0x1.c2b8fa0dc4efep+2'),
    (('0x1.44dcee51891b0p+2', '-0x1.ed0102a7d902cp-1', '0x1.7de0f5344a56ep-3', '0x1.2a3f2b5a02df0p+2'),
     ('0x1.96bdcbdf3a909p+1', '-0x1.8aacfeae2d6b9p-1', '-0x1.27be85bc4e759p-1', '0x1.788946ed9f19bp+1'),
     '-0x1.2517699368997p+2', '-0x1.19fdf895b0e27p+2'),
    (('0x1.0674204c0e732p+4', '-0x1.63c8551f45f9ep+2', '-0x1.1a6c46e12f805p-2', '0x1.b3374966ff522p+3'),
     ('0x1.1317bf67e319dp+3', '0x1.63c8551f45f9ep+2', '0x1.1a6c46e12f805p-2', '0x1.6645b4c8056f4p+0'),
     '-0x1.9be022af2e20ap+3', '-0x1.a6ff13bfd82ecp+3'),
    (('0x1.28753b138a28dp+2', '-0x1.83c6568433be0p+0', '-0x1.a91ffd679926ap-1', '0x1.0791f42810413p+2'),
     ('0x1.367204c9bad24p-1', '0x1.06dacfc818c1cp-5', '0x1.93bf2b2106f0ep-4', '0x1.0ef9bc4d0acb2p-1'),
     '-0x1.1d0288c4dc250p+1', '-0x1.238e390cf973ap+1'),
    (('0x1.79cfc422f14a8p-1', '0x1.4a92cb9e9ad90p-2', '-0x1.a0a095990b890p-4', '0x1.5133c82a79129p-2'),
     ('0x1.0e9c791ae8fc3p+1', '0x1.c5bca26af27ccp+0', '0x1.11b74e66bb0a8p+0', '0x1.e85e75c539e74p-4'),
     '-0x1.57a6d52b38e3ep+1', '-0x1.8f20dfcc3f782p+1'),
    (('0x1.0e3ad179d2954p+2', '-0x1.570a08a06096cp+1', '-0x1.a39effe96212cp-2', '0x1.94eef81fa1194p+1'),
     ('0x1.0bb0a64efeee9p+0', '-0x1.7f963fdc48d61p-1', '0x1.4058e2709901ep-3', '0x1.610bd5fdf4018p-1'),
     '-0x1.067f233cf8020p-2', '-0x1.719b9434a5260p-2'),
    (('0x1.621aa2acd4753p+0', '-0x1.5896db0f33482p-2', '0x1.003c8c1f29f97p-1', '0x1.f757469a418f9p-1'),
     ('0x1.133efb4af9883p+0', '-0x1.a8adb6e77d222p-2', '-0x1.f722abab16b2ap-2', '0x1.5c942a32b58bfp-1'),
     '-0x1.695336ce5a594p+1', '-0x1.82aa82e4bf64ap+1'),
    (('0x1.5126fb0d9250ep+2', '-0x1.b6ef989772cc4p+1', '-0x1.03728eb11591dp-2', '0x1.ed31ed9f1e19ap+1'),
     ('0x1.0b686d147a1afp+1', '-0x1.4fd5513d5c106p-2', '-0x1.3c75f80c350e3p-1', '0x1.c89d2adc60811p-1'),
     '-0x1.9368d505cb79bp+2', '-0x1.a9dbfcc06a2dfp+2'),
    (('0x1.c280a49593cd5p+3', '0x1.4b66f20fc52f7p-4', '-0x1.42a538caee845p+0', '0x1.efa8ac65dee48p+2'),
     ('0x1.5d7f5b6a6c32cp+3', '-0x1.4b66f20fc52f7p-4', '0x1.42a538caee845p+0', '0x1.d057539a211b8p+2'),
     '-0x1.abbbf01d64100p+3', '-0x1.9fe4d9ae62a48p+3'),
    (('0x1.1238c1ffb1d52p-1', '0x1.0ba3af4dd4300p-11', '0x1.bd891f403c641p-2', '-0x1.b596ab52d7529p-4'),
     ('0x1.4fdceb8e21699p+0', '0x1.9742421edffd4p-1', '0x1.2359c95e86d91p-2', '-0x1.d6cfa35a03998p-6'),
     '-0x1.d0fadb6dc30e2p+0', '-0x1.d507fa3cde876p+0'),
    (('0x1.03264451a58b5p+0', '0x1.d11d1cea037a3p-3', '-0x1.2730a6d137e00p-9', '0x1.add5bb1e18574p-3'),
     ('0x1.ba0fa73fae9a9p-2', '0x1.2a407bb5803a9p-4', '-0x1.7fdb36cd48db6p-2', '0x1.d41e91adc1440p-11'),
     '-0x1.1128d7478781cp+0', '-0x1.16ccf1a1604bap+0'),
    (('0x1.8293b380c230dp+1', '-0x1.3d5b460f5e532p+1', '-0x1.a73a9629e7e00p-1', '0x1.78c3196e7591cp+0'),
     ('0x1.06f00fdf38401p+1', '-0x1.113cb1c78be1cp+0', '-0x1.5ca1b5dacbc43p-2', '0x1.697e53f93aa84p+0'),
     '-0x1.6fe564aa5f4fbp+1', '-0x1.9718a1a064ad9p+1'),
    (('0x1.eb6ddbcf26f33p-2', '0x1.da846d4924770p-3', '0x1.4045ec1d76b14p-3', '0x1.4edfcd971d516p-2'),
     ('0x1.0509bc6874f2bp-5', '-0x1.44712a4bb7a46p-6', '-0x1.75712a17a6c2bp-6', '0x1.76daa6e1fc490p-9'),
     '0x1.5215c4f37fe06p+2', '0x1.42549bc005cb6p+2'),
    (('0x1.44c1e1affd387p+2', '-0x1.c5f99ef324440p+1', '-0x1.2ac5b88ba6e11p+0', '0x1.7120b6b3d81d0p+1'),
     ('0x1.ace8d5ba6413cp-2', '-0x1.f406f3e622c9dp-3', '-0x1.84ce3503bf95dp-3', '0x1.ac51b7175a65ap-3'),
     '-0x1.f86a79cc3c00cp+0', '-0x1.7054cf01ee6fcp+0'),
    (('0x1.bdd807895e9b5p+3', '-0x1.b89972dd1989bp+2', '0x1.03ad006494a7cp-1', '0x1.0d1eb87b7d107p+3'),
     ('0x1.6227f876a164ap+3', '0x1.b89972dd1989bp+2', '-0x1.03ad006494a7cp-1', '0x1.a5c28f0905df1p+2'),
     '-0x1.96aeed2c54344p+3', '-0x1.a08bdd0a5957ep+3'),
    (('0x1.5f906f0ba379cp+2', '-0x1.e53a0e318670ap+1', '-0x1.5b5f7f2c1ed3cp+0', '0x1.8be5d2254dc36p+1'),
     ('0x1.c9b3ebc41e962p+1', '-0x1.3941b37bd0035p+1', '-0x1.dbb6c79c01971p-1', '0x1.35e98293b391dp+1'),
     '-0x1.c8dec1b36eaf6p+1', '-0x1.d27e7dd9c991ep+1'),
    (('0x1.45eeed5acbfe7p+0', '-0x1.3586c562e30b0p-2', '0x1.3f1d9f1015a6ep-1', '0x1.3f414d9a8f664p-1'),
     ('0x1.eb6ddbcf26f33p-2', '0x1.da846d4924770p-3', '0x1.4045ec1d76b14p-3', '0x1.4edfcd971d516p-2'),
     '-0x1.d637cfca3cdc8p-1', '-0x1.e068bb3717524p-1'),
    (('0x1.8a06c94aaa8bdp-3', '0x1.166ae57db04d2p-5', '-0x1.ee7dfeadffa56p-6', '-0x1.40f408baa2280p-12'),
     ('0x1.5fe7c9b5c5fdcp-1', '0x1.3c199ab17bb85p-2', '0x1.65b65cfd17592p-3', '0x1.01b235061c8b7p-1'),
     '0x1.2aeaa5d3f7c84p+0', '0x1.fb916b3380fc0p-1'),
    (('0x1.13cef52738431p+0', '0x1.802b43d77f772p-3', '-0x1.acb9d9f509651p-4', '-0x1.787b5f9b4364fp-2'),
     ('0x1.c2697c0870a0bp-1', '0x1.5ee6f76131c1fp-2', '0x1.27e69d2757647p-3', '0x1.018a168505373p-1'),
     '-0x1.b10d479c2cd79p+1', '-0x1.b718c71f3a1bep+1'),
    (('0x1.e78f248d3a232p-1', '-0x1.aa0ea3cde33f7p-5', '0x1.f41a335270000p-2', '-0x1.4a12bc6376869p-3'),
     ('0x1.383a1ccc7a816p-1', '-0x1.cca986cabeae3p-2', '-0x1.e066bf668eb12p-4', '-0x1.11ca7e1c72ddfp-2'),
     '-0x1.9c583a6c416b5p+0', '-0x1.c88104c9d6326p+0'),
    (('0x1.6d04c09ec765cp-1', '-0x1.d2612550d893ep-4', '-0x1.396353db39350p-3', '0x1.cfd33277bd0c8p-2'),
     ('0x1.8fe4a0acda524p+0', '-0x1.00f5ada23d8b1p-1', '0x1.7c008378cc53cp-2', '-0x1.b6d3dc4e2e214p-2'),
     '-0x1.c6de66077b165p+1', '-0x1.c94d855069598p+1'),
    (('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0'),
     ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '-0x1.0000000000000p+0'),
     '-0x1.fe6d89bbce17dp+1', '-0x1.293be5c0a01b8p+2'),
    (('0x1.0000000000000p+1', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0'),
     ('0x1.0000000000000p+1', '0x0.0p+0', '0x0.0p+0', '-0x1.0000000000000p+0'),
     '-0x1.b205a511159b7p+2', '-0x1.b49466b6c1813p+2'),
    ((1, 0, 0, 1),
     (1, 0, 0, -1),
     '-0x1.fe6d89bbce17dp+1', '-0x1.293be5c0a01b8p+2'),
    (('0x1.9000000000000p+4', '0x0.0p+0', '0x0.0p+0', '0x1.e000000000000p+3'),
     ('0x1.8000000000000p+1', '0x1.0000000000000p+0', '-0x1.0000000000000p+0', '0x1.0000000000000p-1'),
     '-0x1.7de43b472e6acp+3', '-0x1.6fe4dfcd158c0p+3'),
    (('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
     ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.4f8b588e368f1p-17'),
     '-0x1.86726f61719d0p+16', '-0x1.8672c36bb3627p+16'),
    (('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
     ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.ad7f29abcaf48p-24'),
     '0x1.f92942dadcc49p+5', '0x1.fa4f0524ec091p+5'),
    (('0x1.8000000000000p+1', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0'),
     ('0x1.0c6f7a0b5ed8dp-20', '0x0.0p+0', '0x0.0p+0', '0x1.0c6f7a0bd223ap-20'),
     '0x1.78793be6c0ac2p+4', '0x1.7ac4c00f7f6e2p+4'),
    (('0x1.0000000000000p+1', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0'),
     ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
     '-0x1.86a478c09bb61p+16', '-0x1.86a3fffe10aebp+16'),
    (('0x1.0000000000000p+1', '0x1.0000000000000p-1', '0x0.0p+0', '0x1.0000000000000p+0'),
     ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
     '-0x1.86a4627a3b0b8p+16', '-0x1.86a3e9b7b0042p+16'),
    (('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0'),
     ('0x1.0000000000000p+1', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+1'),
     '-0x1.86a143f89a3f1p+17', '-0x1.86a143f89a3f1p+17'),
    (('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
     ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
     '-0x1.86a143f89a3f1p+17', '-0x1.86a143f89a3f1p+17'),
    (('0x1.0000000000000p+0', '0x1.3333333333333p-1', '0x1.999999999999ap-1', '0x0.0p+0'),
     ('0x1.8000000000000p+1', '0x1.ccccccccccccdp+0', '0x1.3333333333333p+1', '0x0.0p+0'),
     '-0x1.86a143f89a3f1p+17', '-0x1.86a143f89a3f1p+17'),
]


def _golden_momentum(parts):
    return jc.FourMomentum(*(float.fromhex(x) if isinstance(x, str) else x for x in parts))


@pytest.mark.parametrize("lam_index,lam", [(0, 1.5), (1, 0.7)])
def test_kernel_golden_values(lam_index, lam):
    config = jc.ShowerConfig(lam=lam, t_cut=1.0, root=jc.FourMomentum(25.0, 0.0, 0.0, 15.0))
    for row in GOLDEN_KERNEL:
        a, b = _golden_momentum(row[0]), _golden_momentum(row[1])
        expected = row[2 + lam_index]
        for s in (jc.Splitting(a, b), jc.Splitting(b, a)):
            assert jc.splitting_log_likelihood(s, config).hex() == expected
        with ps_memo():
            assert jc.splitting_log_likelihood(jc.Splitting(a, b), config).hex() == expected
            assert jc.splitting_log_likelihood(jc.Splitting(b, a), config).hex() == expected


_component = st.floats(-20.0, 20.0, allow_nan=False, allow_infinity=False)


@st.composite
def _timelike(draw):
    px, py, pz = draw(_component), draw(_component), draw(_component)
    t = draw(st.one_of(st.just(0.0), st.floats(0.0, 50.0, allow_nan=False)))
    return jc.FourMomentum(math.sqrt(t + px * px + py * py + pz * pz), px, py, pz)


@given(_timelike(), _timelike(), st.floats(0.05, 10.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_kernel_is_the_pair_density_of_its_masses(a, b, lam):
    config = jc.ShowerConfig(lam=lam, t_cut=1.0, root=jc.FourMomentum(25.0, 0.0, 0.0, 15.0))
    value = jc.splitting_log_likelihood(jc.Splitting(a, b), config)
    assert jc.splitting_log_likelihood(jc.Splitting(b, a), config).hex() == value.hex()
    t_p = jc.invariant_mass_sq(a + b)
    if t_p > 0.0:
        expected = _unordered_pair_log_density(
            jc.invariant_mass_sq(a), jc.invariant_mass_sq(b), t_p, lam, shower._log_norm(lam))
    else:
        expected = 2.0 * LOG_DENSITY_FLOOR - math.log(4.0 * math.pi)
    assert value.hex() == expected.hex()


def test_kernel_raises_on_invalid_input():
    config = jc.ShowerConfig(lam=1.5, t_cut=1.0, root=jc.FourMomentum(25.0, 0.0, 0.0, 15.0))
    ok = jc.FourMomentum(2.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        jc.splitting_log_likelihood(jc.Splitting(ok, jc.FourMomentum(-1.0, 0.0, 0.0, 0.0)), config)
    spacelike = jc.FourMomentum(1.0, 0.0, 0.0, 2.0)
    for s in (jc.Splitting(spacelike, ok), jc.Splitting(ok, spacelike)):
        with pytest.raises(ValueError, match="spacelike"):
            jc.splitting_log_likelihood(s, config)
    # children within the spacelike tolerance whose sum is beyond it
    nearly = jc.FourMomentum(0.0, 0.0, 0.0, 3e-5)
    assert jc.invariant_mass_sq(nearly) == 0.0
    with pytest.raises(ValueError, match="spacelike"):
        jc.splitting_log_likelihood(jc.Splitting(nearly, nearly), config)
    for lam in (0.0, -1.0):
        with pytest.raises(ValueError, match="lam"):
            jc.ShowerConfig(lam=lam, t_cut=1.0, root=config.root)
    for t_max in (0.0, -1.0):
        with pytest.raises(ValueError, match="t_max"):
            jc.truncated_exp_log_density(0.5, t_max, 1.5)


def test_kernel_names_a_lam_without_normaliser():
    root = jc.FourMomentum(5.0, 0.0, 0.0, 1.5)
    with pytest.raises(ValueError, match="lam 1e-300 is too small"):
        jc.ShowerConfig(lam=1e-300, t_cut=1.0, root=root)
    with pytest.raises(ValueError, match="lam 1e-300 is too small"):
        jc.truncated_exp_log_density(0.5, 1.0, 1e-300)
    # Boosted collinear children whose rounded mass-squareds put the
    # heavier above the parent's (1.03125 > 1.0) and the lighter above the
    # remainder: outside both supports the normaliser is not used, so the
    # query scores the floor even at 2**-53, the smallest lam that has one.
    tiny = jc.ShowerConfig(lam=2.0 ** -53, t_cut=1.0, root=root)
    a = jc.FourMomentum(16225886.01263308, 0.0, 0.0, 16225886.012633048)
    b = jc.FourMomentum(591277.6001997845, 0.0, 0.0, 591277.6001997833)
    assert (jc.invariant_mass_sq(a), jc.invariant_mass_sq(a + b)) == (1.03125, 1.0)
    floor = 2.0 * LOG_DENSITY_FLOOR - math.log(4.0 * math.pi)
    assert jc.splitting_log_likelihood(jc.Splitting(a, b), tiny) == floor
    degenerate = jc.Splitting(jc.FourMomentum(1, 0, 0, 1), jc.FourMomentum(2, 0, 0, 2))
    assert jc.splitting_log_likelihood(degenerate, tiny) == floor


# ---------------------------------------------------------------------------
# the lazily filled mass-squared slot of FourMomentum
# ---------------------------------------------------------------------------

def _assert_slot_is_invisible(filled, fresh, slot):
    """Equality, hashing, repr, replace and pickling ignore the cache slot,
    which `filled` holds and `fresh`, an equal momentum, does not."""
    assert getattr(filled, slot) is not None and getattr(fresh, slot) is None
    assert filled == fresh and hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh) == "FourMomentum(E=2.0, px=0.5, py=-0.25, pz=1.0)"
    assert filled.as_tuple() == fresh.as_tuple() == (2.0, 0.5, -0.25, 1.0)
    assert {filled: 1}[fresh] == 1
    for p in (filled, fresh):
        replaced = dataclasses.replace(p, E=3.0)
        assert replaced == jc.FourMomentum(3.0, 0.5, -0.25, 1.0) and getattr(replaced, slot) is None
        assert getattr(dataclasses.replace(p), slot) is None
    assert pickle.dumps(filled) == pickle.dumps(fresh)
    restored = pickle.loads(pickle.dumps(filled))
    assert restored == filled and getattr(restored, slot) is None


def test_mass_slot_is_invisible_to_value_semantics():
    filled, fresh = jc.FourMomentum(2.0, 0.5, -0.25, 1.0), jc.FourMomentum(2.0, 0.5, -0.25, 1.0)
    jc.invariant_mass_sq(filled)
    _assert_slot_is_invisible(filled, fresh, "_t")


def _outcome(a, b, config):
    """The kernel's value as float.hex, or its exception's type and message."""
    try:
        return jc.splitting_log_likelihood(jc.Splitting(a, b), config).hex()
    except ValueError as err:
        return type(err), str(err)


@pytest.mark.parametrize("a,b,raises", [
    ((5, 3, 0, 0), (2, 0, 0, 1), None),  # int components: t = 16 and 3, ints
    ((5, 3, 0, 0), (2.0, 0.0, 0.0, 1.0), None),
    ((1.0, 0.0, 0.0, 2.0), (2.0, 0.0, 0.0, 1.0), "spacelike"),  # first child beyond tolerance
    ((2.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 2.0), "spacelike"),  # second child beyond tolerance
    ((0.0, 0.0, 0.0, 3e-5), (2.0, 0.0, 0.0, 1.0), None),  # within tolerance: clamped to 0
    ((0.0, 0.0, 0.0, 3e-5), (0.0, 0.0, 0.0, 3e-5), "spacelike"),  # sum beyond tolerance
    ((2.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 0.0), "non-negative"),
])
def test_repeated_query_of_the_same_children_matches_the_first(a, b, raises):
    config = jc.ShowerConfig(lam=1.5, t_cut=1.0, root=jc.FourMomentum(25.0, 0.0, 0.0, 15.0))
    first_a, first_b = jc.FourMomentum(*a), jc.FourMomentum(*b)
    first = _outcome(first_a, first_b, config)
    assert _outcome(first_a, first_b, config) == first
    assert _outcome(first_b, first_a, config) == first
    # a slot holds the clamped value, or nothing where the kernel raised
    # before reading it or the momentum is spacelike
    for p in (first_a, first_b):
        assert p._t is None or p._t == max(p.E * p.E - p.px * p.px - p.py * p.py - p.pz * p.pz, 0.0)
    # children whose slots invariant_mass_sq filled first, or left empty
    # where it raised
    seen_a, seen_b = jc.FourMomentum(*a), jc.FourMomentum(*b)
    for p in (seen_a, seen_b):
        try:
            jc.invariant_mass_sq(p)
        except ValueError:
            assert p._t is None
        else:
            assert p._t is not None
    assert _outcome(seen_a, seen_b, config) == first
    if raises is None:
        assert isinstance(first, str)
        t = [jc.invariant_mass_sq(jc.FourMomentum(*p)) for p in (a, b)]
        expected = _unordered_pair_log_density(
            *t, jc.invariant_mass_sq(jc.FourMomentum(*a) + jc.FourMomentum(*b)), config.lam,
            shower._log_norm(config.lam))
        assert first == expected.hex()
    else:
        assert first[0] is ValueError and raises in first[1]


@st.composite
def _near_lightlike(draw):
    px, py, pz = draw(_component), draw(_component), draw(_component)
    t = draw(st.floats(-2.0 * EPS_MASS_SQ, 2.0 * EPS_MASS_SQ, allow_nan=False))
    e2 = t + px * px + py * py + pz * pz
    return jc.FourMomentum(math.sqrt(e2) if e2 > 0.0 else 0.0, px, py, pz)


@given(st.lists(st.one_of(_timelike(), _near_lightlike()), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_invariant_mass_sq_matches_the_rows_bit_for_bit(momenta):
    rows = np.array([p.as_tuple() for p in momenta], dtype=float)

    def scalar(ps):
        try:
            return [jc.invariant_mass_sq(p).hex() for p in ps]
        except ValueError as err:
            return str(err)

    try:
        expected = [float(t).hex() for t in invariant_mass_sq_rows(rows)]
    except ValueError as err:
        expected = str(err)
    fresh = [jc.FourMomentum(*p.as_tuple()) for p in momenta]
    assert scalar(fresh) == expected
    assert scalar(fresh) == expected  # from the filled slots


# ---------------------------------------------------------------------------
# The mass rule as it was written before invariant_mass_sq and the kernel
# shared it, kept as the oracle: the slot held the raw E^2 - |p|^2, and
# invariant_mass_sq and each of the kernel's two children applied the
# clamp to it.  The kernel must give the same bits, the same exceptions
# and the same count, whatever its slots hold.
# ---------------------------------------------------------------------------

def _oracle_fill_mass_sq(p):
    t = p.E * p.E - p.px * p.px - p.py * p.py - p.pz * p.pz
    shower._set_t(p, t)
    return t


def _oracle_invariant_mass_sq(p):
    t = p._t
    if t is None:
        t = _oracle_fill_mass_sq(p)
    if t < 0.0:
        if t < -EPS_MASS_SQ:
            raise ValueError(f"momentum is spacelike beyond tolerance: t={t!r}")
        return 0.0
    return t


def _oracle_splitting_log_likelihood(s, config):
    jc.PS_EVALUATIONS.count += 1
    a, b = s
    memo = _PS_MEMO.get()
    if memo is not None:
        key = (a.E, a.px, a.py, a.pz, b.E, b.px, b.py, b.pz, config.lam)
        value = memo.get(key)
        if value is not None:
            return value
        ae, ax, ay, az, be, bx, by, bz, lam = key
    else:
        ae, ax, ay, az = a.E, a.px, a.py, a.pz
        be, bx, by, bz = b.E, b.px, b.py, b.pz
        lam = config.lam
    if ae < 0.0 or be < 0.0:
        raise ValueError("child energies must be non-negative")
    t_a = a._t
    if t_a is None:
        t_a = _oracle_fill_mass_sq(a)
    if t_a < 0.0:
        if t_a < -EPS_MASS_SQ:
            raise ValueError(f"momentum is spacelike beyond tolerance: t={t_a!r}")
        t_a = 0.0
    t_b = b._t
    if t_b is None:
        t_b = _oracle_fill_mass_sq(b)
    if t_b < 0.0:
        if t_b < -EPS_MASS_SQ:
            raise ValueError(f"momentum is spacelike beyond tolerance: t={t_b!r}")
        t_b = 0.0
    pe, px, py, pz = ae + be, ax + bx, ay + by, az + bz
    t_p = pe * pe - px * px - py * py - pz * pz
    if t_p < 0.0:
        if t_p < -EPS_MASS_SQ:
            raise ValueError(f"momentum is spacelike beyond tolerance: t={t_p!r}")
        t_p = 0.0
    if t_p <= 0.0:
        value = 2.0 * LOG_DENSITY_FLOOR + shower._LOG_INV_4PI
    else:
        if lam <= 0.0:
            raise ValueError(f"lam must be > 0, got {lam}")
        log_norm = None
        if t_a < t_b:
            t_a, t_b = t_b, t_a
        if t_a > t_p + shower._SUPPORT_RTOL * t_p:
            first = LOG_DENSITY_FLOOR
        else:
            if log_norm is None:
                log_norm = shower._log_norm(lam)
            t = t_p if t_a > t_p else t_a
            first = math.log(lam / t_p) - lam * t / t_p - log_norm
        bound = (math.sqrt(t_p) - math.sqrt(t_a)) ** 2
        if not bound > 0.0 or t_b > bound + shower._SUPPORT_RTOL * bound:
            second = LOG_DENSITY_FLOOR
        else:
            if log_norm is None:
                log_norm = shower._log_norm(lam)
            t = bound if t_b > bound else t_b
            second = math.log(lam / bound) - lam * t / bound - log_norm
        value = first + second + shower._LOG_INV_4PI
    if memo is not None:
        memo[key] = value
        memo[(be, bx, by, bz, ae, ax, ay, az, lam)] = value
    return value


@st.composite
def _on_light_cone(draw):
    """t exactly 0: along an axis, or a Pythagorean quadruple scaled by a power of 2."""
    if draw(st.booleans()):
        pz = draw(_component)
        return jc.FourMomentum(abs(pz), 0.0, 0.0, pz)
    e, px, py, pz = draw(st.sampled_from([(3, 2, 2, 1), (7, 6, 3, 2), (9, 8, 4, 1), (5, 0, 3, 4)]))
    scale = 2.0 ** draw(st.integers(-4, 4))
    sign = draw(st.sampled_from([-1.0, 1.0]))
    return jc.FourMomentum(e * scale, sign * px * scale, py * scale, -pz * scale)


@st.composite
def _spacelike(draw):
    px, py, pz = draw(_component), draw(_component), draw(_component)
    size = math.sqrt(px * px + py * py + pz * pz)
    return jc.FourMomentum(size * draw(st.floats(0.0, 0.999)), px, py, pz)


@st.composite
def _negative_energy(draw):
    p = draw(st.one_of(_timelike(), _on_light_cone()))
    return jc.FourMomentum(-p.E - draw(st.sampled_from([0.0, 1.0])), p.px, p.py, p.pz)


def _mass_outcome(mass, p):
    try:
        return mass(p).hex()
    except ValueError as err:
        return type(err), str(err)


def _run_queries(momenta, pairs, kernel, mass, config, memo, prefill):
    """Each mass, then the kernel's outcome and counted cost of each pair
    and its swap, then each mass again, on fresh copies of the momenta."""
    ps = [jc.FourMomentum(*p.as_tuple()) for p in momenta]
    out = [_mass_outcome(mass, p) for p in ps] if prefill else []
    with ps_memo() if memo else contextlib.nullcontext():
        for i, j in pairs:
            for a, b in ((ps[i], ps[j]), (ps[j], ps[i])):
                before = jc.PS_EVALUATIONS.count
                try:
                    out.append(kernel(jc.Splitting(a, b), config).hex())
                except ValueError as err:
                    out.append((type(err), str(err)))
                out.append(jc.PS_EVALUATIONS.count - before)
    out.extend(_mass_outcome(mass, p) for p in ps)
    return out


@given(st.lists(st.one_of(_timelike(), _near_lightlike(), _on_light_cone(), _spacelike(),
                          _negative_energy()), min_size=1, max_size=5),
       st.data(), st.floats(0.05, 10.0, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_mass_rule_matches_the_oracle(momenta, data, lam):
    config = jc.ShowerConfig(lam=lam, t_cut=1.0, root=jc.FourMomentum(25.0, 0.0, 0.0, 15.0))
    index = st.integers(0, len(momenta) - 1)
    pairs = data.draw(st.lists(st.tuples(index, index), min_size=1, max_size=8))
    for memo in (False, True):
        for prefill in (False, True):
            expected = _run_queries(momenta, pairs, _oracle_splitting_log_likelihood,
                                    _oracle_invariant_mass_sq, config, memo, prefill)
            assert _run_queries(momenta, pairs, jc.splitting_log_likelihood,
                                jc.invariant_mass_sq, config, memo, prefill) == expected
