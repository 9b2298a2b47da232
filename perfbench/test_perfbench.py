"""Tests of the benchmark itself: failure counting, traced-run
accounting, seeding of the inputs, and agreement with BENCHMARK.json.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import math
from pathlib import Path

import pytest

import checks
import reference
import spans
import workloads
from jetclust import PS_EVALUATIONS, env, harness, planners, shower, trellis
from jetclust.env import Action, apply_action, reset, tree_from_state

CONFIG = harness.DESK_CONFIG


@pytest.fixture(autouse=True)
def speedometer():
    with reference.METER:
        yield reference.METER


@pytest.fixture(scope="module")
def small_events():
    """Six desk events with 6-8 leaves, cheap enough for MCTS in a test."""
    events = harness.generate_events(dataclasses.replace(CONFIG, rng_seed=5), 400)
    return [e for e in events if 6 <= e.n_leaves <= 8][:6]


def test_wrong_ll_incomplete_tree_and_raise_count_as_failed(small_events):
    good = workloads.search_solver(CONFIG, 0)

    def wrong_ll(ev):
        tree, ll = good(ev)
        return tree, ll + 1e-6

    def incomplete(ev):
        tree, ll = good(ev)
        tree.nodes = tree.nodes[:-1]  # drop the root
        return tree, ll

    def raises(ev):
        raise ValueError("planner bug")

    for solve in (wrong_ll, incomplete, raises):
        results = workloads.run_events(small_events, solve)
        attempted, failed, problems = workloads.failures("search", [results], CONFIG)
        assert attempted == failed == len(small_events), solve.__name__
        assert len(problems) == len(small_events)

    results = workloads.run_events(small_events, good)
    assert workloads.failures("search", [results], CONFIG)[1] == 0


def test_exact_check_needs_the_closed_form_count(small_events):
    results = workloads.run_events(small_events[:2], workloads.exact_solver(CONFIG))
    assert workloads.failures("exact", [results], CONFIG)[1] == 0
    results[0].counted += 1
    assert workloads.failures("exact", [results], CONFIG)[1] == 1


def test_non_finite_bc_loss_counts_as_failed_step():
    result = workloads.TrainResult(steps=4, seconds=1.0, counted=0,
                                   losses=[1.0, math.nan, 0.5, math.inf], error=None)
    attempted, failed, _ = workloads.failures("train", [result], CONFIG)
    assert (attempted, failed) == (4, 2)


@pytest.mark.parametrize("solver", ["search", "exact"])
def test_traced_pass_counts_what_the_untraced_pass_counts(small_events, solver):
    solve = workloads.search_solver(CONFIG, 3) if solver == "search" else workloads.exact_solver(CONFIG)
    plain = workloads.run_events(small_events, solve)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = workloads.run_events(small_events, solve, tracer)
    tracer.end()
    assert [e.counted for e in traced] == [e.counted for e in plain]
    assert checks.fingerprint(traced) == checks.fingerprint(plain)
    # Every counted evaluation went through a wrapper, and each was attributed.
    seen = sum(tracer.calls[k] for k in spans.KERNEL_NAMES)
    assert seen == sum(e.counted for e in traced) == sum(tracer.kernel_under.values())
    if solver == "exact":
        assert tracer.calls["kernel.trellis"] == sum(
            (3 ** e.event.n_leaves + 1) // 2 - 2 ** e.event.n_leaves for e in traced)
    else:
        assert tracer.calls["planners.search_node"] > 0
        assert 0 < tracer.distinct_pairs < seen
    # Originals are back in place.
    assert planners.splitting_log_likelihood is shower.splitting_log_likelihood
    assert env.splitting_log_likelihood is shower.splitting_log_likelihood
    assert trellis.exact_mle.__module__ == "jetclust.trellis"
    assert not hasattr(planners.SearchNode, "__wrapped__")


def test_self_times_add_up(small_events):
    tracer = spans.Tracer()
    solve = workloads.search_solver(CONFIG, 3)
    with spans.installed(tracer):
        workloads.run_events(small_events[:2], solve, tracer)
    self_total = sum(v for k, v in tracer.self_s.items() if k != "event")
    assert self_total <= tracer.total_s["event"]
    assert tracer.self_s["planners.cluster_mcts"] > 0


def test_inputs_depend_only_on_the_seed(tmp_path):
    a = workloads.generate("search", 7, tmp_path)
    b = workloads.generate("search", 7, tmp_path)
    c = workloads.generate("search", 8, tmp_path)

    def key(inputs):
        return [[(e.event_id, e.leaves) for e in r] for r in inputs.rounds]

    assert key(a) == key(b)
    assert key(a) != key(c)
    spec = workloads.SPECS["search"]
    for inputs in (a, c):
        assert len(inputs.rounds) >= spec.min_rounds
        for r in inputs.rounds:
            for (lo, hi), k in spec.composition.items():
                assert sum(lo <= e.n_leaves <= hi for e in r) == k
            assert len(r) == sum(spec.composition.values())
            assert [e.event_id for e in r] == sorted(e.event_id for e in r)


@pytest.mark.parametrize("workload, smallest", [("search", 16), ("exact", 12), ("train", 18)])
def test_tail_percentile_falls_among_the_largest_events(workload, smallest):
    """Ordered by size, the deterministic rounds put the tail percentile
    and the TAIL_BEYOND events beyond it among the largest events."""
    spec = workloads.SPECS[workload]
    sizes = sorted(lo for (lo, hi), k in spec.composition.items() for _ in range(k * spec.min_rounds))
    position = math.floor(workloads.tail_percentile(len(sizes)) / 100 * (len(sizes) - 1))
    assert len(sizes) - 1 - position >= workloads.TAIL_BEYOND
    assert sizes[position] >= smallest


def test_fingerprint_ignores_merge_order_only():
    leaves = harness.generate_events(CONFIG, 1)[0].leaves[:4]

    def tree(actions):
        state = reset(leaves)
        for i, j in actions:
            state = apply_action(state, Action(i, j), 0.0).next_state
        return tree_from_state(state)

    # ((0,1),(2,3)) built in two merge orders, and ((0,2),(1,3)).
    first = checks.structure(tree([(0, 1), (0, 1), (0, 1)]))
    second = checks.structure(tree([(2, 3), (0, 1), (0, 1)]))
    other = checks.structure(tree([(0, 2), (0, 1), (0, 1)]))
    assert first == second != other


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == workloads.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.SPECS)


def test_counter_untouched_by_tracing(small_events):
    before = PS_EVALUATIONS.count
    tracer = spans.Tracer()
    with spans.installed(tracer):
        workloads.run_events(small_events[:1], workloads.exact_solver(CONFIG), tracer)
    n = small_events[0].n_leaves
    assert PS_EVALUATIONS.count - before == (3 ** n + 1) // 2 - 2 ** n


def test_times_are_scaled_by_the_speed_sampled_during_each_event(small_events):
    results = workloads.run_events(small_events[:2], workloads.exact_solver(CONFIG))
    for e in results:
        assert e.wall > 0 and 0.1 < e.seconds / e.wall < 10

    m = reference.Speedometer()
    m.starts, m.ends, m.speeds = [0.0, 1.0, 2.0, 3.0], [0.01, 1.01, 2.01, 3.01], [1.0, 0.5, 2.0, 4.0]
    # Samples at 1 and 2 lie inside; the one at 0 is the last before.
    # Their time is taken out of the wall time.
    assert m.scaled(0.5, 2.5) == pytest.approx((2.0 - 0.02) * (1.0 + 0.5 + 2.0) / 3)
    # No sample inside: the last one before gives the speed.
    assert m.scaled(2.2, 2.7) == pytest.approx(0.5 * 2.0)
    assert m.scaled(-1.0, -0.5) == pytest.approx(0.5 * 1.0)


def test_compositions_follow_the_desk_shares():
    assert workloads.SPECS["exact"].composition == {(9, 9): 1, (10, 10): 2, (11, 11): 2, (12, 12): 3}
    total = sum(workloads.DESK_SHARES.values())
    for size in (16, 20, 100):
        counts = workloads.apportion(workloads.DESK_SLOTS, size)
        assert sum(counts.values()) == size
        for (lo, hi), k in counts.items():
            share = sum(workloads.DESK_SHARES[n] for n in range(lo, hi + 1)) / total
            assert abs(k - size * share) < 1
