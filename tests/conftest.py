import pytest

import jetclust as jc
from jetclust.rng import make_rng

# Lighter root than the experiment default: events land mostly at 3-8
# leaves, small enough for exhaustive oracles.
SMALL_CONFIG = jc.ShowerConfig(
    lam=1.5, t_cut=1.0, root=jc.FourMomentum(5.0, 0.0, 0.0, 1.5), rng_seed=0)


@pytest.fixture(scope="session")
def desk_config():
    return jc.DESK_CONFIG


@pytest.fixture(scope="session")
def small_config():
    return SMALL_CONFIG


@pytest.fixture(scope="session")
def small_events():
    """100 events from the light config, leaf counts roughly 2-11."""
    return jc.generate_events(SMALL_CONFIG, 100)


@pytest.fixture(scope="session")
def medium_events():
    """60 events around 10 leaves each, enough structure for imitation."""
    config = jc.ShowerConfig(
        lam=1.5, t_cut=1.0, root=jc.FourMomentum(12.0, 0.0, 0.0, 4.0), rng_seed=2)
    return config, jc.generate_events(config, 60)


@pytest.fixture(scope="session")
def oracle_events(small_events):
    """50 events with 3-7 leaves, small enough for tree enumeration."""
    extra = jc.generate_events(
        jc.ShowerConfig(lam=1.5, t_cut=1.0, root=jc.FourMomentum(5.0, 0.0, 0.0, 1.5), rng_seed=17),
        150,
    )
    picked = [e for e in list(small_events) + extra if 3 <= e.n_leaves <= 7][:50]
    assert len(picked) == 50
    return picked


@pytest.fixture(autouse=True)
def _fresh_cost_counter():
    jc.PS_EVALUATIONS.reset()
    yield


def make_event(config, seed, n_leaves=None, max_tries=400):
    """One sampled event, optionally filtered to an exact leaf count."""
    for k in range(max_tries):
        tree = jc.sample_shower(config, make_rng(seed, k))
        if n_leaves is None or tree.n_leaves == n_leaves:
            return tree
    raise RuntimeError(f"no event with {n_leaves} leaves in {max_tries} tries")


def as_frozensets(masks):
    """Leaf bitmasks (bit k = leaf k) as frozensets of leaf ids, the form
    the tests' oracles were written for."""
    return tuple(frozenset(k for k in range(m.bit_length()) if m >> k & 1) for m in masks)
