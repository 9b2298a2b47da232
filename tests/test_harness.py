import collections
import dataclasses
import io
import json
import math
import os
import re
import shlex
import stat
import subprocess
import sys
import tempfile
import types
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jetclust as jc
from jetclust import harness
from jetclust.cli import _build_parser, cli
from jetclust.env import check_leaves
from jetclust.harness import (
    build_planner,
    compare,
    config_hash,
    dumps,
    evaluate,
    event_to_json,
    write_comparison,
)
from jetclust.rng import make_rng
from jetclust.trellis import DEFAULT_N_MAX

from conftest import SMALL_CONFIG


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_dumps_17_significant_digits():
    assert dumps(0.1) == "0.10000000000000001"
    assert dumps([1.0, -2.5]) == "[1,-2.5]"
    assert dumps({"a": 3}) == '{"a":3}'
    # negative zero is normalized so reload/re-dump is stable
    assert dumps(-0.0) == "0"
    value = -123.45678901234567
    assert float(json.loads(dumps(value))) == value


def test_dumps_round_trips_floats():
    rng = make_rng(3)
    for _ in range(500):
        x = float(rng.normal(0.0, 10.0 ** rng.integers(-8, 8)))
        assert float(json.loads(dumps(x))) == x


def test_dumps_writes_a_dict_subclass_as_its_dict():
    ordered = collections.OrderedDict([("b", 0.1), ("a", [1, None])])
    assert dumps(ordered) == dumps(dict(ordered)) == '{"b":0.10000000000000001,"a":[1,null]}'


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps(float("nan"))
    with pytest.raises(ValueError):
        dumps(float("inf"))


# The isinstance-chain writer that the fast writer replaced, kept as the
# oracle: the fast one must give the same string, or raise the same
# exception type, for every value.
def _reference_format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        return "0"  # normalizes -0.0 so round-trips stay byte-identical
    return format(x, ".17g")


def _reference_dumps(obj) -> str:
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


def _outcome(write, value):
    try:
        return write(value)
    except Exception as exc:
        return type(exc)


class _Pair(NamedTuple):
    first: object
    second: object


_edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, sys.float_info.max,
                                -sys.float_info.max, math.nan, math.inf, -math.inf, 0.1, 1e16, -1e-300])
_floats = st.one_of(st.floats(), _edge_floats)
# 10**5000 has more digits than str() converts, so both writers raise ValueError.
_ints = st.one_of(st.integers(), st.sampled_from([2**63, -(2**200)]),
                  st.sampled_from([1, -1]).map(lambda sign: sign * 10**5000))
_strings = st.one_of(st.text(), st.sampled_from(['"', "\\", 'say "hi"\n', "\x00\x1f\x7f", "é✓😀\u2028", ""]))
_scalars = st.one_of(
    _floats, _ints, st.booleans(), st.none(), _strings,
    _floats.map(np.float64), st.floats(width=32).map(np.float32), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.sampled_from([1j, b"bytes", {1, 2}, np.bool_(True), object()]),
)
# A key that is not a str is written as str(key), which for a numpy scalar is not its repr.
_keys = st.one_of(_strings, st.integers(), st.booleans(), st.floats(allow_nan=False),
                  st.floats(allow_nan=False).map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64))
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(_floats, max_size=6),  # the fast path for lists of plain floats
        st.lists(_floats, max_size=6).map(tuple),
        st.dictionaries(_keys, inner, max_size=5),
        st.builds(_Pair, inner, inner),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(value=_values)
def test_dumps_matches_the_reference_writer(value):
    assert _outcome(dumps, value) == _outcome(_reference_dumps, value)


def test_event_to_json_matches_the_reference_writer(desk_config, monkeypatch):
    events = jc.generate_events(desk_config, 200)
    written = [event_to_json(e) for e in events]
    monkeypatch.setattr(harness, "dumps", _reference_dumps)
    assert written == [event_to_json(e) for e in events]


def test_config_hash_sensitivity(small_config):
    base = config_hash(small_config)
    assert base == config_hash(SMALL_CONFIG)
    bumped = jc.ShowerConfig(
        lam=small_config.lam + 1e-9, t_cut=small_config.t_cut,
        root=small_config.root, rng_seed=small_config.rng_seed)
    assert config_hash(bumped) != base
    reseeded = jc.ShowerConfig(
        lam=small_config.lam, t_cut=small_config.t_cut,
        root=small_config.root, rng_seed=small_config.rng_seed + 1)
    assert config_hash(reseeded) != base


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_generate_single_event_round_trip(tmp_path, small_config):
    path = tmp_path / "one.jsonl"
    events = jc.generate(small_config, 1, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    loaded = jc.load_events(path)
    assert len(loaded) == 1
    assert event_to_json(loaded[0]) == lines[0]
    assert loaded[0].leaves == events[0].leaves


def test_generate_is_byte_identical(tmp_path, small_config):
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    jc.generate(small_config, 20, p1)
    jc.generate(small_config, 20, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generated_truth_ll_matches_recomputation(tmp_path, small_config):
    path = tmp_path / "d.jsonl"
    jc.generate(small_config, 30, path)
    for event in jc.load_events(path):
        recomputed = jc.tree_log_likelihood(event.truth, small_config)
        assert abs(recomputed - event.truth_ll) <= 1e-9


def test_write_events_output_loads_and_charges_each_truth_check(tmp_path, desk_config):
    # Loading scores each truth tree: n - 1 kernel queries per event of n
    # leaves, in the global tally.
    path = tmp_path / "d.jsonl"
    events = jc.generate_events(desk_config, 20)
    jc.write_events(path, events)
    before = jc.PS_EVALUATIONS.count
    loaded = jc.load_events(path)
    assert jc.PS_EVALUATIONS.count - before == sum(e.n_leaves - 1 for e in events)
    assert [e.truth_ll for e in loaded] == [e.truth_ll for e in events]


@pytest.mark.parametrize("shift", [100.0, 1e-6])
def test_cli_rejects_a_truth_ll_its_truth_tree_does_not_score(tmp_path, capsys, small_config, shift):
    lines = [event_to_json(e) for e in jc.generate_events(small_config, 3)]
    obj = json.loads(lines[1])
    obj["truth_ll"] += shift
    lines[1] = json.dumps(obj)
    data = tmp_path / "d.jsonl"
    data.write_text("\n".join(lines) + "\n")
    reason = "differs from the truth tree's log-likelihood"
    with pytest.raises(ValueError, match=f"{re.escape(str(data))}:2: truth_ll .* {reason}"):
        jc.load_events(data)
    weights = tmp_path / "w.bin"
    assert cli(["train", "--mode", "bc", "--in", str(data), "--steps", "5", "--out", str(weights)]) == 2
    err = capsys.readouterr().err
    assert f"{data}:2: " in err and reason in err
    assert not weights.exists()


def test_cli_rejects_a_truth_root_that_is_not_the_config_root(tmp_path, capsys, desk_config):
    lines = [event_to_json(e) for e in jc.generate_events(desk_config, 3)]
    obj = json.loads(lines[1])
    obj["truth"]["nodes"][obj["truth"]["root"]]["p"] = [90.0, 0.0, 0.0, 1.0]
    lines[1] = json.dumps(obj)
    data = tmp_path / "d.jsonl"
    data.write_text("\n".join(lines) + "\n")
    reason = "truth root momentum (90.0, 0.0, 0.0, 1.0) is not the config root"
    with pytest.raises(ValueError, match=f"{re.escape(str(data))}:2: {re.escape(reason)}"):
        jc.load_events(data)
    weights = tmp_path / "w.bin"
    assert cli(["train", "--mode", "bc", "--in", str(data), "--steps", "20", "--out", str(weights)]) == 2
    err = capsys.readouterr().err
    assert f"{data}:2: " in err and reason in err
    assert not weights.exists()


@pytest.mark.parametrize("flags", [[], ["--seed", "7"], ["--lam", "3"], ["--t-cut", "0.5"],
                                   ["--root", "40", "3", "-2.5", "10"]])
def test_every_generated_dataset_loads_with_the_config_root(tmp_path, flags):
    data = tmp_path / "d.jsonl"
    assert cli(["generate", "--n-events", "40", "--out", str(data), "--quiet", *flags]) == 0
    events = jc.load_events(data)
    assert len(events) == 40
    assert all(e.truth.nodes[e.truth.root_index].momentum == e.config.root for e in events)


def test_failed_write_leaves_no_partial_dataset(tmp_path, small_config):
    events = jc.generate_events(small_config, 3)
    path = tmp_path / "d.jsonl"
    jc.write_events(path, events)
    old = path.read_bytes()
    bad = [events[0], dataclasses.replace(events[1], truth_ll=math.nan), events[2]]
    with pytest.raises(ValueError, match="non-finite"):
        jc.write_events(path, bad)
    assert path.read_bytes() == old
    fresh = tmp_path / "new.jsonl"
    with pytest.raises(ValueError, match="non-finite"):
        jc.write_events(fresh, bad)
    (tmp_path / "dir").mkdir()
    os.mkfifo(tmp_path / "fifo")
    for other in ("dir", "fifo"):
        with pytest.raises(OSError, match="cannot write dataset .*: not a regular file"):
            jc.write_events(tmp_path / other, events)
    assert stat.S_ISFIFO(os.stat(tmp_path / "fifo").st_mode)
    # No temporary file is left beside the datasets.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "dir", "fifo"]
    assert not any((tmp_path / "dir").iterdir())


def test_write_events_through_a_symlink_rewrites_its_target(tmp_path, small_config):
    events = jc.generate_events(small_config, 3)
    target, link = tmp_path / "d.jsonl", tmp_path / "link.jsonl"
    jc.write_events(target, events[:1])
    link.symlink_to(target)
    jc.write_events(link, events)
    assert link.is_symlink()
    assert target.read_text() == "".join(event_to_json(e) + "\n" for e in events)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "link.jsonl"]


def test_load_missing_file_reports_path(tmp_path):
    with pytest.raises(OSError, match="nope.jsonl"):
        jc.load_events(tmp_path / "nope.jsonl")


@pytest.mark.parametrize("corrupt,reason", [
    (lambda obj: "{not json", "Expecting property name"),
    (lambda obj: json.dumps({k: v for k, v in obj.items() if k != "truth_ll"}), "truth_ll"),
    (lambda obj: json.dumps({**obj, "leaves": [obj["leaves"][0][:3], *obj["leaves"][1:]]}),
     "not four finite numbers"),
    (lambda obj: json.dumps({**obj, "schema_version": 99}), "schema_version 99"),
    (lambda obj: json.dumps({**obj, "schema_version": 1}), "schema_version 1"),
    (lambda obj: json.dumps({**obj, "leaves": [[math.nan, 0, 0, 1], *obj["leaves"][1:]]}),
     "not four finite numbers"),
    (lambda obj: json.dumps({**obj, "leaves": [[10**400, 0, 0, 1], *obj["leaves"][1:]]}), "too large"),
    (lambda obj: json.dumps({**obj, "truth_ll": math.inf}), "truth_ll inf is not a finite number"),
    (lambda obj: json.dumps({**obj, "config": {**obj["config"], "lam": math.nan}}),
     "config lam nan is not a finite number"),
    (lambda obj: json.dumps({**obj, "config": {**obj["config"], "lam": 1e-300}}),
     "lam 1e-300 is too small"),
    (lambda obj: json.dumps({**obj, "config": {**obj["config"], "rng_seed": 8}}),
     "differs from the first event"),
    (lambda obj: json.dumps({**obj, "config": {**obj["config"], "rng_seed": 8.0}}), "int rng_seed"),
], ids=["invalid-json", "missing-truth_ll", "three-number-leaf", "other-schema-version",
        "schema-1-line", "nan-leaf", "huge-int-leaf", "infinite-truth_ll", "nan-lam", "tiny-lam",
        "mixed-config", "float-seed"])
def test_cli_rejects_bad_event_line(tmp_path, capsys, small_config, corrupt, reason):
    lines = [event_to_json(e) for e in jc.generate_events(small_config, 3)]
    lines[1] = corrupt(json.loads(lines[1]))
    data = tmp_path / "d.jsonl"
    data.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=reason):
        jc.load_events(data)
    assert cli(["cluster", "--algo", "greedy", "--in", str(data)]) == 2
    err = capsys.readouterr().err
    assert f"{data}:2: " in err
    assert reason in err


def _first_leaf(nodes):
    return next(k for k, node in enumerate(nodes) if node["children"] is None)


def _set(obj, key, value):
    obj[key] = value
    return obj


def _cycle(truth):
    # Two internal nodes that name each other as parent and children,
    # reached from nowhere: the leaves are untouched.
    s = len(truth["nodes"])
    p = truth["nodes"][0]["p"]
    truth["nodes"] += [{"p": p, "parent": s + 1, "children": [s + 1, s + 1]},
                       {"p": p, "parent": s, "children": [s, s]}]
    return truth


@pytest.mark.parametrize("corrupt, reason", [
    (lambda t: _set(t["nodes"][0], "children", [1, 99]), "child 99 is not a node index"),
    (lambda t: _set(t["nodes"][0], "children", [1, -1]), "child -1 is not a node index"),
    (lambda t: _set(t["nodes"][0], "children", [True, 2]), "child True is not a node index"),
    (lambda t: _set(t["nodes"][1], "parent", 99), "node 1 is a child of node 0 but names parent 99"),
    (lambda t: _set(t, "root", 99), "root 99 is not a node index"),
    (lambda t: _set(t["nodes"][0], "parent", 1), "root 0 has parent 1"),
    (lambda t: _set(t["nodes"][0], "children", [1]), "has children [1], not two"),
    (lambda t: _set(t["nodes"][0], "children", [1, 2, 2]), "not two"),
    (lambda t: _set(t["nodes"][1], "parent", 2), "node 1 is a child of node 0 but names parent 2"),
    (lambda t: _set(t["nodes"][0], "children", [1, 1]), "node 1 is reached twice"),
    (_cycle, "are not reached from the root"),
    (lambda t: _set(t["nodes"][_first_leaf(t["nodes"])], "p", [9.0, 0.0, 0.0, 1.0]),
     "leaves, in pre-order, differ"),
], ids=["child-out-of-range", "negative-child", "bool-child", "parent-out-of-range",
        "root-out-of-range", "root-with-parent", "one-child", "three-children",
        "child-names-another-parent", "child-twice", "cycle", "other-leaf"])
def test_cli_rejects_malformed_truth_tree(tmp_path, capsys, small_config, corrupt, reason):
    lines = [event_to_json(e) for e in jc.generate_events(small_config, 3)]
    obj = json.loads(lines[1])
    corrupt(obj["truth"])
    lines[1] = json.dumps(obj)
    data = tmp_path / "d.jsonl"
    data.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(reason)):
        jc.load_events(data)
    weights = tmp_path / "w.bin"
    assert cli(["train", "--mode", "bc", "--in", str(data), "--steps", "5", "--out", str(weights)]) == 2
    err = capsys.readouterr().err
    assert f"{data}:2: " in err and reason in err
    assert not weights.exists()


def test_load_rejects_leaves_in_another_order(tmp_path, small_config):
    # Bit k of a BC target is particle k of the event, so the line's leaves
    # must list the truth tree's leaves in the sampler's order.
    event = next(e for e in jc.generate_events(small_config, 20) if len(set(e.leaves)) >= 3)
    obj = json.loads(event_to_json(event))
    obj["leaves"] = obj["leaves"][1:] + obj["leaves"][:1]
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(data))}:1: .*differ from the event's leaves"):
        jc.load_events(data)


def test_loaded_truth_lists_its_leaves_as_the_sampler_did(tmp_path, desk_config):
    # A loaded event demonstrates the same merges as the generated one.
    path = tmp_path / "d.jsonl"
    events = jc.generate(desk_config, 12, path)
    for made, loaded in zip(events, jc.load_events(path)):
        assert loaded.truth.leaf_indices == made.truth.leaf_indices
        assert loaded.truth.leaf_momenta() == list(loaded.leaves)
        state = jc.reset(loaded.leaves)
        while not jc.is_terminal(state):
            demonstrated = jc.truth_actions(state, loaded.truth)
            assert demonstrated == jc.truth_actions(state, made.truth) != []
            state = jc.step(state, demonstrated[0], desk_config)
    weights = [jc.train_bc(data, desk_config, 40, 0.03, make_rng(5))[0]
               for data in (events, jc.load_events(path))]
    assert [a.tobytes() for a in weights[0].arrays()] == [a.tobytes() for a in weights[1].arrays()]


@pytest.mark.parametrize("event_id", ["3", 3.0, True, None])
def test_load_rejects_an_event_id_that_is_not_an_int(tmp_path, small_config, event_id):
    lines = [event_to_json(e) for e in jc.generate_events(small_config, 2)]
    lines[1] = json.dumps({**json.loads(lines[1]), "id": event_id})
    data = tmp_path / "d.jsonl"
    data.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(data))}:2: event id .* is not an int"):
        jc.load_events(data)


def test_cli_rejects_a_repeated_event_id(tmp_path, capsys, small_config):
    lines = [event_to_json(e) for e in jc.generate_events(small_config, 4)]
    lines[3] = json.dumps({**json.loads(lines[3]), "id": 1})
    data = tmp_path / "d.jsonl"
    data.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(data))}:4: event id 1 repeats the id of line 2"):
        jc.load_events(data)
    assert cli(["train", "--mode", "mle-bc", "--in", str(data), "--steps", "5",
                "--out", str(tmp_path / "w.bin")]) == 2
    assert "repeats the id of line 2" in capsys.readouterr().err
    assert not (tmp_path / "w.bin").exists()


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_trivial_aggregation(small_events, monkeypatch):
    # stub planner returning fixed values checks the arithmetic exactly
    fixed = {0: -1.0, 1: -2.0, 2: -3.0}

    def fake_build_planner(spec, config):
        table = {tuple(e.leaves): fixed[e.event_id] for e in small_events[:3]}
        return lambda leaves, rng: (None, table[tuple(leaves)])

    import jetclust.harness as hmod
    monkeypatch.setattr(hmod, "build_planner", fake_build_planner)
    result = evaluate(small_events[:3], {"algo": "greedy"}, n_eval=3, seeds=[0])
    assert result.mean_ll == -2.0
    assert result.sem_ll == 0.0


def test_evaluate_greedy_zero_variance_across_seeds(small_events):
    result = evaluate(small_events, {"algo": "greedy"}, n_eval=10, seeds=[0, 1, 2])
    assert result.sem_ll == 0.0
    assert len(result.per_seed) == 3
    # aggregate recomputes from the parts
    seed_means = [s["mean_ll"] for s in result.per_seed]
    assert abs(result.mean_ll - np.mean(seed_means)) <= 1e-12
    for entry in result.per_seed:
        rows = [e["ll"] for e in result.per_event if e["seed"] == entry["seed"]]
        assert abs(np.mean(rows) - entry["mean_ll"]) <= 1e-12


def test_evaluate_beam_costs_exceed_greedy(small_events):
    greedy = evaluate(small_events, {"algo": "greedy"}, n_eval=10, seeds=[0])
    beam = evaluate(small_events, {"algo": "beam", "b": 3}, n_eval=10, seeds=[0])
    for g, b in zip(greedy.per_event, beam.per_event):
        assert b["cost"] > g["cost"]


def test_evaluate_greedy_cost_closed_form(small_events):
    result = evaluate(small_events, {"algo": "greedy"}, n_eval=10, seeds=[0])
    for entry in result.per_event:
        n = entry["n_leaves"]
        assert entry["cost"] == sum(k * (k - 1) // 2 for k in range(2, n + 1))


def test_evaluate_rejects_unknown_planner(small_events):
    with pytest.raises(ValueError):
        evaluate(small_events, {"algo": "quantum"}, n_eval=2, seeds=[0])


def test_evaluate_requires_enough_events(small_events):
    with pytest.raises(ValueError):
        evaluate(small_events[:3], {"algo": "greedy"}, n_eval=5, seeds=[0])


def test_evaluate_rejects_empty_seed_list(small_events, monkeypatch):
    import jetclust.harness as hmod

    def no_planner(spec, config):
        raise AssertionError("a planner was built for an empty seed list")

    monkeypatch.setattr(hmod, "build_planner", no_planner)
    with pytest.raises(ValueError, match="seed"):
        evaluate(small_events, {"algo": "greedy"}, n_eval=2, seeds=[])


def test_evaluate_rejects_fewer_than_one_event(small_events, monkeypatch):
    import jetclust.harness as hmod

    def no_planner(spec, config):
        raise AssertionError("a planner was built for n_eval < 1")

    monkeypatch.setattr(hmod, "build_planner", no_planner)
    for n_eval in (0, -1):
        with pytest.raises(ValueError, match="n_eval"):
            evaluate(small_events, {"algo": "greedy"}, n_eval=n_eval, seeds=[0])


def test_evaluate_rejects_events_of_another_config(monkeypatch):
    import jetclust.harness as hmod

    def no_planner(spec, config):
        raise AssertionError("a planner was built for events of another config")

    monkeypatch.setattr(hmod, "build_planner", no_planner)
    other = dataclasses.replace(jc.DESK_CONFIG, lam=3.0, rng_seed=5)
    events = jc.generate_events(jc.DESK_CONFIG, 2) + jc.generate_events(other, 1)
    with pytest.raises(ValueError) as err:
        evaluate(events, {"algo": "greedy"}, 3, [0])
    assert config_hash(other) in str(err.value) and config_hash(jc.DESK_CONFIG) in str(err.value)


def test_evaluate_rejects_a_negative_seed(small_events, monkeypatch):
    import jetclust.harness as hmod

    def no_planner(spec, config):
        raise AssertionError("a planner was built for a negative seed")

    monkeypatch.setattr(hmod, "build_planner", no_planner)
    with pytest.raises(ValueError, match="seeds must be non-negative, got -3"):
        evaluate(small_events, {"algo": "greedy"}, n_eval=2, seeds=[0, -3])


def test_a_run_records_only_the_settings_its_planner_reads(small_events):
    # Every key of the spec used to land in params, so a greedy run stored
    # a beam width and an MCTS budget it never read.
    unread = {"b": 2, "n_mcts": 2, "c": 0.5, "prior": "nn", "weights": "w.bin", "final_rule": "max-rollout",
              "rollout_rule": "puct"}
    assert evaluate(small_events, {"algo": "greedy", "b": 5, "n_mcts": 7, "prior": "nn"}, 3, [0]).params == {}
    assert evaluate(small_events, {"algo": "random", **unread}, 3, [0]).params == {}
    assert evaluate(small_events, {"algo": "beam", **unread}, 3, [0]).params == {"b": 2}
    policy = {"algo": "policy", **unread, "prior": "random"}
    assert evaluate(small_events, policy, 3, [0]).params == {"prior": "random", "weights": "w.bin"}
    # mcts reads every key, and params keep the spec's order
    mcts = {"rollout_rule": "puct", "algo": "mcts", **unread, "prior": "random"}
    assert list(evaluate(small_events, mcts, 3, [0]).params) == [k for k in mcts if k != "algo"]
    assert harness.PLANNER_SPEC_KEYS == ("algo", *harness.PLANNER_READS["mcts"])


def test_cli_compare_labels_a_run_by_the_settings_its_planner_reads(tmp_path, capsys):
    data, greedy, beam = tmp_path / "d.jsonl", tmp_path / "g.json", tmp_path / "b.json"
    cli(["generate", "--n-events", "3", "--out", str(data), "--quiet", *SMALL_FLAGS])
    for algo, out in (("greedy", greedy), ("beam", beam)):
        assert cli(["evaluate", "--algo", algo, "--b", "5", "--n-mcts", "7", "--in", str(data),
                    "--out", str(out), "--quiet"]) == 0
    assert cli(["compare", str(greedy), str(beam), "--out", str(tmp_path / "cmp"), "--quiet"]) == 0
    table = json.loads((tmp_path / "cmp.json").read_text())["table"]
    assert sorted(row["planner"] for row in table) == ["beam(b=5)", "greedy"]


def test_run_result_derives_its_aggregates_from_its_rows():
    rows = [{"seed": seed, "id": k, "n_leaves": 3 + k, "ll": -1.5 * (k + 1) - seed, "cost": 3 * k + seed,
             "ms": 0.25} for seed in (2, 0) for k in range(3)]
    result = jc.RunResult("greedy", {"b": 1}, rows, "abc")
    assert [f.name for f in dataclasses.fields(result)] == ["planner", "params", "per_event", "dataset_hash"]
    assert (result.per_seed, result.mean_ll, result.sem_ll, result.mean_cost) == harness._summary(rows)
    assert [s["seed"] for s in result.per_seed] == [2, 0]
    text = result.to_json()
    back = jc.RunResult.from_json(text)
    assert back == result and back.to_json() == text


def test_run_result_round_trip(small_events):
    result = evaluate(small_events, {"algo": "greedy"}, n_eval=5, seeds=[0])
    text = result.to_json()
    back = jc.RunResult.from_json(text)
    assert back.to_json() == text


def test_run_result_rejects_other_schema_version(small_events):
    result = evaluate(small_events, {"algo": "greedy"}, n_eval=2, seeds=[0])
    obj = json.loads(result.to_json())
    obj["schema_version"] = 99
    with pytest.raises(ValueError, match="schema_version 99"):
        jc.RunResult.from_json(json.dumps(obj))


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_identical_runs_identical_rows(small_events):
    r1 = evaluate(small_events, {"algo": "greedy"}, n_eval=8, seeds=[0])
    r2 = evaluate(small_events, {"algo": "greedy"}, n_eval=8, seeds=[0])
    out = compare([r1, r2])
    assert out["table"][0] == out["table"][1]


def test_compare_orders_by_mean_ll(small_events):
    greedy = evaluate(small_events, {"algo": "greedy"}, n_eval=12, seeds=[0])
    random = evaluate(small_events, {"algo": "random"}, n_eval=12, seeds=[0])
    out = compare([random, greedy])
    assert out["table"][0]["planner"] == "greedy"
    assert out["table"][0]["mean_ll"] >= out["table"][1]["mean_ll"]


def test_compare_bins_partition_events(small_events):
    result = evaluate(small_events, {"algo": "greedy"}, n_eval=15, seeds=[0])
    other = evaluate(small_events, {"algo": "random"}, n_eval=15, seeds=[0])
    out = compare([result, other])
    greedy_rows = [row for row in out["by_leaf_count"] if row["planner"] == "greedy"]
    assert sum(row["n_events"] for row in greedy_rows) == 15


def test_compare_rejects_mismatched_event_sets(small_events):
    r1 = evaluate(small_events, {"algo": "greedy"}, n_eval=8, seeds=[0])
    r2 = evaluate(small_events, {"algo": "greedy"}, n_eval=9, seeds=[0])
    with pytest.raises(ValueError):
        compare([r1, r2])


def test_compare_needs_two_runs(small_events):
    run = evaluate(small_events, {"algo": "greedy"}, n_eval=2, seeds=[0])
    for runs in ([], [run]):
        with pytest.raises(ValueError, match="need at least 2 runs to compare"):
            compare(runs)


def test_compare_rejects_different_datasets(small_events, small_config):
    other_config = jc.ShowerConfig(
        lam=small_config.lam, t_cut=small_config.t_cut,
        root=small_config.root, rng_seed=small_config.rng_seed + 5)
    other_events = jc.generate_events(other_config, 8)
    r1 = evaluate(small_events, {"algo": "greedy"}, n_eval=8, seeds=[0])
    r2 = evaluate(other_events, {"algo": "greedy"}, n_eval=8, seeds=[0])
    with pytest.raises(ValueError, match="different datasets"):
        compare([r1, r2])


def test_write_comparison_emits_csv_and_json(tmp_path, small_events):
    r1 = evaluate(small_events, {"algo": "greedy"}, n_eval=5, seeds=[0])
    r2 = evaluate(small_events, {"algo": "beam", "b": 2}, n_eval=5, seeds=[0])
    comparison = compare([r1, r2])
    assert tuple(comparison) == harness.COMPARISON_SECTIONS
    written = write_comparison(comparison, tmp_path / "cmp")
    assert written == harness.comparison_paths(tmp_path / "cmp")
    names = {p.name for p in written}
    assert names == {"cmp_table.csv", "cmp_curve.csv", "cmp_by_leaf_count.csv", "cmp.json"}
    table = (tmp_path / "cmp_table.csv").read_text().splitlines()
    assert table[0] == "planner,mean_ll,sem_ll,mean_cost"
    assert len(table) == 3


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

SMALL_FLAGS = ["--lam", "1.5", "--t-cut", "1.0", "--root", "5.0", "0.0", "0.0", "1.5"]


def test_cli_generate_then_cluster(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    assert cli(["generate", "--n-events", "10", "--seed", "7", "--out", str(data), *SMALL_FLAGS]) == 0
    assert data.exists()
    code = cli(["cluster", "--algo", "greedy", "--in", str(data),
                "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mean LL" in out


def test_cli_mle_skips_large_events(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "15", "--seed", "3", "--out", str(data), *SMALL_FLAGS])
    code = cli(["mle", "--in", str(data), "--max-n", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "skipping event" in out


def test_cli_mle_out_holds_the_exact_mle_lls(tmp_path, capsys):
    data, out = tmp_path / "d.jsonl", tmp_path / "mle.json"
    cli(["generate", "--n-events", "15", "--seed", "3", "--out", str(data), "--quiet", *SMALL_FLAGS])
    assert cli(["mle", "--in", str(data), "--max-n", "6", "--out", str(out), "--quiet"]) == 0
    first = out.read_bytes()
    rows = json.loads(first)["per_event"]
    events = [e for e in jc.load_events(data) if e.n_leaves <= 6]
    assert 0 < len(rows) == len(events) < 15
    assert rows == [{"id": e.event_id, "n_leaves": e.n_leaves,
                     "mle_ll": jc.exact_mle(e.leaves, e.config)[0]} for e in events]
    assert cli(["mle", "--in", str(data), "--max-n", "6", "--out", str(out), "--quiet"]) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("command", ["mle", "compare"])
def test_cli_seed_is_only_on_the_subcommands_that_read_it(tmp_path, capsys, command):
    # mle and compare draw nothing at random: they took a --seed and
    # ignored it.
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--out", str(data), "--quiet", *SMALL_FLAGS])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for r in (r1, r2):
        cli(["evaluate", "--algo", "greedy", "--in", str(data), "--out", str(r), "--quiet"])
    argv = (["mle", "--in", str(data), "--max-n", "4"] if command == "mle"
            else ["compare", str(r1), str(r2), "--out", str(tmp_path / "cmp")])
    capsys.readouterr()
    assert cli([*argv, "--seed", "7", "--quiet"]) == 1
    assert "--seed" in capsys.readouterr().err
    # A config file's seed serves the subcommands that read one, and is
    # not checked for one that reads none.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    assert cli([*argv, "--config", str(cfg), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_mle_quiet_prints_only_the_summary(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "15", "--seed", "3", "--out", str(data), "--quiet", *SMALL_FLAGS])
    capsys.readouterr()
    assert cli(["mle", "--in", str(data), "--max-n", "4", "--quiet"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("mean MLE LL over ")


def test_cli_mle_rejects_max_n_outside_the_cost_guard(tmp_path, capsys, monkeypatch):
    import jetclust.cli as cmod

    def no_load(*args, **kwargs):
        raise AssertionError("the dataset was read for an invalid --max-n")

    monkeypatch.setattr(cmod, "load_events", no_load)
    out = tmp_path / "mle.json"
    for n in ("1", "0", "-3", str(DEFAULT_N_MAX + 1), "30"):
        code = cli(["mle", "--in", str(tmp_path / "d.jsonl"), "--max-n", n, "--out", str(out)])
        assert code == 1
        assert "--max-n" in capsys.readouterr().err
    assert not out.exists()


def test_cli_mle_accepts_max_n_at_both_ends(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "6", "--seed", "3", "--out", str(data), *SMALL_FLAGS])
    for n in ("2", str(DEFAULT_N_MAX)):
        assert cli(["mle", "--in", str(data), "--max-n", n, "--quiet"]) == 0
    assert "usage error" not in capsys.readouterr().err


def test_cli_evaluate_emits_multi_seed_result(tmp_path):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "8", "--seed", "5", "--out", str(data), *SMALL_FLAGS])
    out = tmp_path / "r.json"
    code = cli(["evaluate", "--algo", "mcts", "--b", "3", "--n-mcts", "10",
                "--seeds", "5", "--in", str(data), "--out", str(out),
                "--seed", "5"])
    assert code == 0
    result = jc.RunResult.from_json(out.read_text())
    assert len(result.per_seed) == 5
    assert result.planner == "mcts"


def test_cli_evaluate_rejects_fewer_than_one_seed(tmp_path, capsys, monkeypatch):
    import jetclust.cli as cmod

    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--seed", "5", "--out", str(data), *SMALL_FLAGS])

    def no_evaluate(*args, **kwargs):
        raise AssertionError("events were clustered for an empty seed list")

    monkeypatch.setattr(cmod, "evaluate", no_evaluate)
    capsys.readouterr()
    out = tmp_path / "r.json"
    for n in ("0", "-2"):
        code = cli(["evaluate", "--algo", "greedy", "--seeds", n, "--in", str(data),
                    "--out", str(out), "--seed", "5"])
        assert code == 1
        assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "cluster", "evaluate", "train"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_rejects_a_negative_seed(tmp_path, capsys, monkeypatch, command, source):
    # numpy's "expected non-negative integer" used to end the run with
    # exit 2, after the dataset had been read, naming neither flag nor value.
    import jetclust.cli as cmod

    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "2", "--out", str(data), "--quiet", *SMALL_FLAGS])
    monkeypatch.setattr(cmod, "load_events", lambda path: pytest.fail("the dataset was read"))
    monkeypatch.chdir(tmp_path)
    argv = [command, "--out", "out"] + (["--algo", "greedy"] if command in ("cluster", "evaluate") else [])
    argv += [] if command == "generate" else ["--in", str(data)]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        (tmp_path / "c.json").write_text(json.dumps({"seed": -1}))
        argv += ["--config", "c.json"]
    capsys.readouterr()
    assert cli(argv) == 1
    assert capsys.readouterr().err == "usage error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


def _out_argv(command: str, out: str) -> list[str]:
    """A command line of `command` that writes `out`, reading d.jsonl (or
    a.json and b.json, for compare)."""
    return {
        "generate": ["generate"],
        "cluster": ["cluster", "--algo", "greedy", "--in", "d.jsonl"],
        "mle": ["mle", "--in", "d.jsonl"],
        "train": ["train", "--steps", "2", "--in", "d.jsonl"],
        "evaluate": ["evaluate", "--algo", "greedy", "--in", "d.jsonl"],
        "compare": ["compare", "a.json", "b.json"],
    }[command] + ["--out", out]


OUT_COMMANDS = ["generate", "cluster", "mle", "train", "evaluate", "compare"]


def _no_input_is_read(monkeypatch):
    import jetclust.cli as cmod

    monkeypatch.setattr(cmod, "generate", lambda *args: pytest.fail("events were generated"))
    monkeypatch.setattr(cmod, "load_events", lambda path: pytest.fail("the dataset was read"))
    monkeypatch.setattr(cmod, "_load_result", lambda path: pytest.fail("a result file was read"))


@pytest.mark.parametrize("out", [".", "..", "", "cmp/", "cmp/.", "cmp/.."])
def test_cli_compare_out_must_name_a_file_prefix(tmp_path, capsys, monkeypatch, out):
    # compare --out "." printed the table, then exited 2 on pathlib's
    # empty-name error; ".." wrote hidden files named "..*" into the
    # working directory.  Every subcommand's --out is checked the same way.
    (tmp_path / "cmp").mkdir()
    _no_input_is_read(monkeypatch)
    monkeypatch.chdir(tmp_path / "cmp")
    capsys.readouterr()
    for command in OUT_COMMANDS:
        assert cli(_out_argv(command, out)) == 1, command
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"usage error: --out must end in a file name, got {out!r}\n"
    assert [p.name for p in tmp_path.rglob("*")] == ["cmp"]


def test_cli_compare_out_in_a_missing_directory_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # compare printed the table, then exited 2 on a raw "[Errno 2]";
    # evaluate and train did so after all their work.  Every subcommand's
    # --out is checked the same way, before any input is read.
    _no_input_is_read(monkeypatch)
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    for command in OUT_COMMANDS:
        assert cli(_out_argv(command, "nodir/x")) == 1, command
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("usage error: --out ") and "nodir/x" in out.err
    assert list(tmp_path.iterdir()) == []


def _too_long_outs(name_max):
    """Per subcommand, --out values one byte too long for NAME_MAX: in
    ASCII and in two-byte characters; for compare, in its longest
    derived name, <prefix>_by_leaf_count.csv."""
    outs = {}
    for command in OUT_COMMANDS:
        room = name_max - (len("_by_leaf_count.csv") if command == "compare" else 0)
        outs[command] = ["a" * (room + 1), "\u00e9" * (room // 2) + "a" * (room % 2 + 1)]
    return outs


def test_cli_out_name_longer_than_name_max_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # generate simulated every event, then exited 2 on a raw "[Errno 36]
    # File name too long"; every subcommand did its work first.
    _no_input_is_read(monkeypatch)
    monkeypatch.chdir(tmp_path)
    name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
    capsys.readouterr()
    for command, outs in _too_long_outs(name_max).items():
        for out in outs:
            assert cli(_out_argv(command, out)) == 1, command
            printed = capsys.readouterr()
            assert printed.out == ""
            assert printed.err.startswith(f"usage error: --out {out!r} makes a file name of ")
            assert printed.err.endswith(f"; its directory allows {name_max}\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_out_name_check_falls_back_to_255_bytes(tmp_path, capsys, monkeypatch):
    import jetclust.cli as cmod

    def unknown(path, name):
        raise OSError("no limit known")

    _no_input_is_read(monkeypatch)
    monkeypatch.chdir(tmp_path)
    for pathconf in (unknown, lambda path, name: -1):
        monkeypatch.setattr(cmod.os, "pathconf", pathconf)
        for command, outs in _too_long_outs(255).items():
            assert cli(_out_argv(command, outs[0])) == 1, command
            assert capsys.readouterr().err.endswith("; its directory allows 255\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["cluster", "mle", "evaluate", "train"])
def test_cli_out_that_cannot_be_written_is_a_runtime_error_after_no_summary(tmp_path, capsys, monkeypatch, command):
    # cluster, mle and evaluate printed their summary, then failed on a
    # raw "[Errno 21]" from Path.write_text.
    monkeypatch.chdir(tmp_path)
    cli(["generate", "--n-events", "3", "--seed", "3", "--out", "d.jsonl", "--quiet", *SMALL_FLAGS])
    (tmp_path / "x").mkdir()
    capsys.readouterr()
    assert cli([*_out_argv(command, "x"), "--quiet"]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error: cannot write ") and " to x: " in printed.err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["d.jsonl", "x"]


def test_cli_train_keeps_the_old_weights_when_its_write_fails(tmp_path, capsys, monkeypatch):
    # save_weights truncated the file before writing it.
    monkeypatch.chdir(tmp_path)
    cli(["generate", "--n-events", "3", "--seed", "3", "--out", "d.jsonl", "--quiet", *SMALL_FLAGS])
    assert cli(["train", "--steps", "2", "--in", "d.jsonl", "--out", "w.bin", "--quiet"]) == 0
    old = (tmp_path / "w.bin").read_bytes()

    def no_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(harness.os, "replace", no_replace)
    capsys.readouterr()
    assert cli(["train", "--steps", "3", "--seed", "1", "--in", "d.jsonl", "--out", "w.bin"]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == "error: cannot write weights to w.bin: disk full\n"
    assert (tmp_path / "w.bin").read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl", "w.bin"]


def test_cli_writes_an_out_of_the_longest_file_name(tmp_path, capsys, monkeypatch):
    # The temporary file was named after the target plus about 13
    # characters, so a name that fits NAME_MAX failed with a raw
    # "[Errno 36]" that named the temporary file.
    monkeypatch.chdir(tmp_path)
    longest = os.pathconf(tmp_path, "PC_NAME_MAX")
    name = "a" * (longest - len(".jsonl")) + ".jsonl"
    assert cli(["generate", "--n-events", "3", "--seed", "3", "--out", name, "--quiet", *SMALL_FLAGS]) == 0
    (tmp_path / "d.jsonl").symlink_to(name)
    for command in ("cluster", "mle", "evaluate", "train"):
        name = command[0] * longest
        assert cli([*_out_argv(command, name), "--quiet"]) == 0, command
        assert (tmp_path / name).stat().st_size > 0
    for r in ("a.json", "b.json"):
        cli(["evaluate", "--algo", "greedy", "--in", "d.jsonl", "--out", r, "--quiet"])
    prefix = "c" * (longest - len("_by_leaf_count.csv"))
    assert cli(_out_argv("compare", prefix) + ["--quiet"]) == 0
    assert (tmp_path / (prefix + "_by_leaf_count.csv")).exists()
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


def test_write_all_reports_its_own_error_when_clean_up_fails(tmp_path, monkeypatch):
    # The clean-up's unlink raised in the finally block and replaced the
    # write's error, which named what and where.
    def fail(*args, **kwargs):
        raise OSError("no room")

    monkeypatch.setattr(harness.os, "replace", fail)
    monkeypatch.setattr(Path, "unlink", fail)
    with pytest.raises(OSError, match=re.escape(f"cannot write weights to {tmp_path / 'w.bin'}: no room")):
        harness.write_all({tmp_path / "w.bin": [b"x"]}, "weights")


def test_cli_compare_writes_all_of_its_outputs_or_none(tmp_path, capsys):
    # A directory named x.json took the JSON; the three CSVs were
    # written before it failed.
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--out", str(data), "--quiet", *SMALL_FLAGS])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for r, algo in ((r1, "greedy"), (r2, "random")):
        cli(["evaluate", "--algo", algo, "--in", str(data), "--out", str(r), "--quiet"])
    out = tmp_path / "out"
    out.mkdir()
    for blocker in ("x.json", "x_table.csv", "x_by_leaf_count.csv"):
        (out / blocker).mkdir()
        capsys.readouterr()
        assert cli(["compare", str(r1), str(r2), "--out", str(out / "x")]) == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith("error: cannot write comparison to ") and str(out / blocker) in printed.err
        assert sorted(p.name for p in out.iterdir()) == [blocker]
        (out / blocker).rmdir()
    assert cli(["compare", str(r1), str(r2), "--out", str(out / "x"), "--quiet"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "x.json", "x_by_leaf_count.csv", "x_curve.csv", "x_table.csv"]


def test_cli_train_that_diverges_writes_no_weights(tmp_path, capsys):
    data, weights = tmp_path / "d.jsonl", tmp_path / "w.bin"
    cli(["generate", "--n-events", "5", "--out", str(data), "--quiet"])
    capsys.readouterr()
    assert cli(["train", "--steps", "200", "--lr", "1000", "--in", str(data), "--out", str(weights)]) == 2
    assert re.fullmatch(r"error: training diverged: step \d+ has loss inf at lr=1000\.0\n", capsys.readouterr().err)
    assert not weights.exists()


def test_cli_train_and_policy_cluster(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "8", "--seed", "9", "--out", str(data), *SMALL_FLAGS])
    weights = tmp_path / "w.bin"
    code = cli(["train", "--mode", "bc", "--in", str(data), "--steps", "60",
                "--lr", "0.05", "--seed", "9", "--out", str(weights)])
    assert code == 0
    assert weights.exists()
    capsys.readouterr()
    code = cli(["cluster", "--algo", "policy", "--prior", "nn", "--weights", str(weights),
                "--in", str(data), "--seed", "9"])
    assert code == 0
    assert "mean LL" in capsys.readouterr().out


@pytest.mark.parametrize("flags, named", [
    (["--steps", "0"], "--steps"),
    (["--steps", "-5"], "--steps"),
    (["--lr", "nan"], "--lr"),
    (["--lr", "inf"], "--lr"),
    (["--lr", "-1"], "--lr"),
    (["--lr", "0"], "--lr"),
])
def test_cli_train_rejects_bad_steps_and_lr(tmp_path, capsys, flags, named):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--seed", "9", "--out", str(data), "--quiet", *SMALL_FLAGS])
    weights = tmp_path / "w.bin"
    capsys.readouterr()
    code = cli(["train", "--mode", "bc", "--in", str(data), "--steps", "5", *flags,
                "--seed", "9", "--out", str(weights)])
    assert code == 1
    assert named in capsys.readouterr().err
    assert not weights.exists()


def test_cli_train_rejects_bad_steps_from_a_config_file(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--seed", "9", "--out", str(data), "--quiet", *SMALL_FLAGS])
    conf = tmp_path / "c.json"
    conf.write_text(json.dumps({"steps": 0}))
    weights = tmp_path / "w.bin"
    capsys.readouterr()
    assert cli(["train", "--config", str(conf), "--in", str(data), "--out", str(weights)]) == 1
    assert "--steps" in capsys.readouterr().err
    assert not weights.exists()


@pytest.mark.parametrize("damage", ["truncate", "nan"])
def test_cli_policy_cluster_rejects_damaged_weights(tmp_path, capsys, damage):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--seed", "9", "--out", str(data), "--quiet", *SMALL_FLAGS])
    weights = tmp_path / "w.bin"
    assert cli(["train", "--mode", "bc", "--in", str(data), "--steps", "20", "--seed", "9",
                "--out", str(weights), "--quiet"]) == 0
    if damage == "truncate":
        weights.write_bytes(weights.read_bytes()[:-3])
    else:
        w, header = jc.load_weights(weights)
        w.w1[...] = math.nan
        jc.save_weights(weights, w, config_hash=header["config_hash"])
    capsys.readouterr()
    code = cli(["cluster", "--algo", "policy", "--prior", "nn", "--weights", str(weights),
                "--in", str(data), "--seed", "9"])
    out = capsys.readouterr()
    assert code == 2
    assert str(weights) in out.err
    assert "mean LL" not in out.out


def test_cli_compare(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "6", "--seed", "11", "--out", str(data), *SMALL_FLAGS])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli(["evaluate", "--algo", "greedy", "--in", str(data), "--out", str(r1),
         "--seed", "11"])
    cli(["evaluate", "--algo", "random", "--in", str(data), "--out", str(r2),
         "--seed", "11"])
    capsys.readouterr()
    code = cli(["compare", str(r1), str(r2), "--out", str(tmp_path / "cmp")])
    assert code == 0
    assert (tmp_path / "cmp_table.csv").exists()


def test_cli_rejects_density_flags_that_miss_the_dataset(tmp_path, capsys):
    # the density comes from the dataset, so no subcommand but generate has a density flag
    data = tmp_path / "d.jsonl"
    assert cli(["generate", "--n-events", "4", "--seed", "3", "--out", str(data), "--quiet"]) == 0
    out = tmp_path / "r.json"
    for flags in (["--lam", "1.5"], ["--t-cut", "1.0"], ["--root", "25", "0", "0", "15"]):
        for command in (["cluster", "--algo", "greedy", "--in", str(data)], ["mle", "--in", str(data)],
                        ["train", "--in", str(data), "--steps", "1"],
                        ["evaluate", "--algo", "greedy", "--in", str(data)], ["compare", "a.json", "b.json"]):
            capsys.readouterr()
            assert cli([*command, "--out", str(out), *flags]) == 1, (command, flags)
            assert flags[0] in capsys.readouterr().err
            assert not out.exists()


def test_cli_clusters_a_dataset_with_the_density_it_stores(tmp_path, capsys):
    config = jc.ShowerConfig(lam=3.0, t_cut=1.0, root=jc.DESK_CONFIG.root, rng_seed=3)
    data = tmp_path / "d.jsonl"
    assert cli(["generate", "--n-events", "4", "--seed", "3", "--lam", "3",
                "--out", str(data), "--quiet"]) == 0
    out = tmp_path / "r.json"
    assert cli(["cluster", "--algo", "greedy", "--in", str(data), "--quiet", "--out", str(out)]) == 0
    want = evaluate(jc.generate_events(config, 4), {"algo": "greedy"}, n_eval=4, seeds=[0])
    got = json.loads(out.read_text())["per_event"]
    assert [(e["ll"], e["cost"]) for e in got] == [(e["ll"], e["cost"]) for e in want.per_event]
    assert jc.RunResult.from_json(out.read_text()).dataset_hash == config_hash(config)
    # a config file holding lam still serves a consumer subcommand, which ignores it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lam": 1.5, "algo": "greedy"}))
    capsys.readouterr()
    assert cli(["cluster", "--config", str(cfg), "--in", str(data)]) == 0
    assert f"mean LL {want.mean_ll:.4f}" in capsys.readouterr().out


def test_load_events_shares_one_config(tmp_path, small_config):
    path = tmp_path / "d.jsonl"
    jc.generate(small_config, 5, path)
    events = jc.load_events(path)
    assert events[0].config == small_config
    assert all(e.config is events[0].config for e in events)
    assert json.loads(path.read_text().splitlines()[0])["config"] == {
        "lam": 1.5, "t_cut": 1.0, "root": [5.0, 0, 0, 1.5], "rng_seed": 0}


def test_cli_weights_record_the_dataset_hash(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    assert cli(["generate", "--n-events", "4", "--seed", "0", "--out", str(data), *SMALL_FLAGS]) == 0
    dataset_hash = config_hash(jc.load_events(data)[0].config)
    assert f"config {dataset_hash}" in capsys.readouterr().out
    weights = tmp_path / "w.bin"
    assert cli(["train", "--mode", "bc", "--in", str(data), "--steps", "5", "--seed", "9",
                "--out", str(weights), "--quiet"]) == 0
    _, header = jc.load_weights(weights)
    assert header["config_hash"] == dataset_hash


def test_cli_exit_codes(tmp_path):
    assert cli(["frobnicate"]) == 1            # unknown subcommand
    assert cli(["cluster", "--bogus-flag"]) == 1
    assert cli(["cluster", "--algo", "nope"]) == 1  # invalid choice
    assert cli(["cluster", "--algo", "greedy"]) == 1  # missing --in
    assert cli(["cluster", "--algo", "greedy", "--in", str(tmp_path / "missing.jsonl")]) == 2
    assert cli(["--help"]) == 0
    assert cli(["compare", "only_one.json"]) == 1


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "lam": 1.5, "t_cut": 1.0, "root": [5.0, 0.0, 0.0, 1.5],
        "n_events": 5, "seed": 13, "out": str(data),
    }))
    assert cli(["generate", "--config", str(cfg)]) == 0
    assert len(data.read_text().splitlines()) == 5
    # flag wins over the file
    assert cli(["generate", "--config", str(cfg), "--n-events", "3"]) == 0
    assert len(data.read_text().splitlines()) == 3


@pytest.mark.parametrize("case", ["missing config", "config not an object", "no algo"])
def test_cli_usage_errors_before_any_work(tmp_path, capsys, case):
    data, cfg, out = tmp_path / "d.jsonl", tmp_path / "cfg.json", tmp_path / "r.json"
    cli(["generate", "--n-events", "2", "--out", str(data), "--quiet", *SMALL_FLAGS])
    argv = ["cluster", "--in", str(data), "--out", str(out)]
    if case == "missing config":
        argv += ["--algo", "greedy", "--config", str(cfg)]
        message = f"config file not found: {cfg}"
    elif case == "config not an object":
        cfg.write_text(json.dumps(["algo", "greedy"]))
        argv += ["--config", str(cfg)]
        message = f"config file {cfg} is not a JSON object"
    else:
        message = "--algo is required"
    assert cli(argv) == 1
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


def test_cli_config_file_that_is_not_utf8_json_is_a_usage_error(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cfg = tmp_path / "cfg.json"
    for content in (b"{not json", b"\xff\xfe"):
        cfg.write_bytes(content)
        capsys.readouterr()
        assert cli(["generate", "--config", str(cfg), "--out", str(data)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and str(cfg) in err
        assert not data.exists()
    # a directory fails on open, whose error names the path
    assert cli(["generate", "--config", str(tmp_path), "--out", str(data)]) == 2
    assert str(tmp_path) in capsys.readouterr().err
    assert not data.exists()


def test_cli_train_mcts_takes_its_network_from_the_init_weights(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--seed", "9", "--out", str(data), "--quiet", *SMALL_FLAGS])
    no_ps, with_ps = tmp_path / "no_ps.bin", tmp_path / "ps.bin"
    bc = ["train", "--mode", "bc", "--in", str(data), "--steps", "5", "--seed", "9", "--quiet"]
    assert cli([*bc, "--no-ps-feature", "--out", str(no_ps)]) == 0
    assert cli([*bc, "--out", str(with_ps)]) == 0
    mcts = ["train", "--mode", "mcts", "--in", str(data), "--steps", "3", "--n-mcts", "2",
            "--b", "1", "--seed", "9", "--quiet"]
    derived, flagged = tmp_path / "derived.bin", tmp_path / "flagged.bin"
    assert cli([*mcts, "--init-weights", str(no_ps), "--out", str(derived)]) == 0
    assert cli([*mcts, "--init-weights", str(no_ps), "--no-ps-feature", "--out", str(flagged)]) == 0
    assert derived.read_bytes() == flagged.read_bytes()
    assert jc.load_weights(derived)[1]["include_ps"] is False
    capsys.readouterr()
    out = tmp_path / "bad.bin"
    assert cli([*mcts, "--init-weights", str(with_ps), "--no-ps-feature", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "--no-ps-feature" in err and str(with_ps) in err
    assert not out.exists()



@pytest.mark.parametrize("mode", ["bc", "mle-bc"])
@pytest.mark.parametrize("init", ["written", "missing"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_train_rejects_init_weights_outside_mcts(tmp_path, capsys, mode, init, source):
    # Cloning starts from fresh weights, so it would drop the file unread.
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--seed", "9", "--out", str(data), "--quiet", *SMALL_FLAGS])
    init_path = tmp_path / "init.bin"
    if init == "written":
        assert cli(["train", "--in", str(data), "--steps", "5", "--out", str(init_path), "--quiet"]) == 0
    argv = ["train", "--mode", mode, "--in", str(data), "--steps", "5", "--out", str(tmp_path / "w.bin")]
    if source == "flag":
        argv += ["--init-weights", str(init_path)]
    else:
        (tmp_path / "c.json").write_text(json.dumps({"init_weights": str(init_path)}))
        argv += ["--config", str(tmp_path / "c.json")]
    capsys.readouterr()
    assert cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "--init-weights" in err and f"--mode {mode}" in err
    assert not (tmp_path / "w.bin").exists()

@pytest.fixture
def cli_calls(tmp_path, monkeypatch):
    """cli() run in tmp_path with its harness, policy and trellis callees
    replaced by recorders: returns the record, name -> [(args, kwargs)],
    and a runner that clears it and asserts exit 0.  The loaded dataset
    holds a 10-leaf and an 11-leaf event of DESK_CONFIG."""
    import jetclust.cli as cmod

    calls = {}
    events = [types.SimpleNamespace(event_id=k, n_leaves=n, leaves=(), config=jc.DESK_CONFIG)
              for k, n in enumerate((10, 11))]
    result = types.SimpleNamespace(planner="p", mean_ll=0.0, sem_ll=0.0, mean_cost=0.0, to_json=lambda: "{}")

    def recorder(name, value):
        def callee(*args, **kwargs):
            calls.setdefault(name, []).append((args, kwargs))
            return value
        return callee

    for name, value in [("generate", events[:1]), ("load_events", events), ("evaluate", result),
                        ("exact_mle", (0.0, None)), ("train_bc", (None, [0.0])),
                        ("train_mcts_policy", (None, [0.0])), ("save_weights", None),
                        ("load_weights", (None, {})), ("compare", {"table": []}), ("write_comparison", [])]:
        monkeypatch.setattr(cmod, name, recorder(name, value))
    monkeypatch.setattr(cmod, "RunResult", types.SimpleNamespace(from_json=str.strip))
    monkeypatch.chdir(tmp_path)

    def run(*argv):
        calls.clear()
        assert cli(list(argv)) == 0, argv
        return calls
    return events, run


def test_cli_defaults_are_pinned(cli_calls, tmp_path, capsys):
    events, run = cli_calls
    (config, n_events, out), _ = run("generate")["generate"][0]
    assert (config, n_events, out) == (jc.DESK_CONFIG, 100, "events.jsonl")
    assert "wrote 1 events to events.jsonl" in capsys.readouterr().out  # --quiet is off

    (got, spec), kwargs = run("cluster", "--algo", "greedy", "--in", "d.jsonl")["evaluate"][0]
    assert (got, spec, kwargs) == (events, {"algo": "greedy"}, {"n_eval": 2, "seeds": [0]})

    assert [args[0] for args, _ in run("mle", "--in", "d.jsonl")["exact_mle"]] == [()]  # --max-n 10
    assert "skipping event 1: 11 leaves > max-n 10" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []  # cluster and mle write no file by default

    calls = run("train", "--in", "d.jsonl")
    (got, config, steps, lr, rng), kwargs = calls["train_bc"][0]
    assert (got, config, steps, lr) == (events, jc.DESK_CONFIG, 20000, 0.03)
    assert kwargs == {"demonstrator": "truth", "include_ps": True}
    assert rng.random(4).tolist() == make_rng(0, 1_000_003).random(4).tolist()  # --seed 0
    assert calls["save_weights"][0][0][0] == "weights.bin"
    (_, cfg, _, steps, lr, _), kwargs = run("train", "--in", "d.jsonl", "--mode", "mcts")["train_mcts_policy"][0]
    assert (cfg, steps, lr, kwargs) == (harness.mcts_config({}), 20000, 0.03, {"init": None, "include_ps": True})

    _, kwargs = run("evaluate", "--algo", "greedy", "--in", "d.jsonl")["evaluate"][0]
    assert kwargs == {"n_eval": 2, "seeds": [0]}
    assert (tmp_path / "result.json").read_text() == "{}\n"

    for name in ("a.json", "b.json"):
        (tmp_path / name).write_text(name + "\n")
    calls = run("compare", "a.json", "b.json")
    assert calls["compare"][0][0] == (["a.json", "b.json"],)
    assert calls["write_comparison"][0][0] == ({"table": []}, "comparison")

    for command in ("generate", "cluster", "mle", "train", "evaluate", "compare"):
        assert cli([command, "--help"]) == 0
        assert f"usage: jetclust {command}" in capsys.readouterr().out


def _trained_as(calls) -> str:
    if "train_mcts_policy" in calls:
        return "mcts"
    return {"truth": "bc", "mle-for-small-n": "mle-bc"}[calls["train_bc"][0][1]["demonstrator"]]


_TRAIN = ("train", "--in", "d.jsonl")
_PRECEDENCE = [
    # argv, key, (file value, file value under the flags), flags, read,
    # (default, value from the file, value from the flags)
    (_TRAIN, "steps", (7, 7), ["--steps", "9"], lambda c: c["train_bc"][0][0][2], (20000, 7, 9)),
    (_TRAIN, "lr", (0.5, 0.5), ["--lr", "0.25"], lambda c: c["train_bc"][0][0][3], (0.03, 0.5, 0.25)),
    (("generate",), "root", ([30, 0, 0, 10], [30, 0, 0, 10]), ["--root", "40", "0", "0", "20"],
     lambda c: c["generate"][0][0][0].root.as_tuple(),
     ((25.0, 0.0, 0.0, 15.0), (30.0, 0.0, 0.0, 10.0), (40.0, 0.0, 0.0, 20.0))),
    # a switch can only be turned on by its flag, so the flags beat a file that turns it off
    (_TRAIN, "no_ps_feature", (True, False), ["--no-ps-feature"],
     lambda c: c["train_bc"][0][1]["include_ps"], (True, False, False)),
    (_TRAIN, "mode", ("mcts", "mcts"), ["--mode", "mle-bc"], _trained_as, ("bc", "mcts", "mle-bc")),
]


@pytest.mark.parametrize("argv, key, file_values, flags, read, want", _PRECEDENCE,
                         ids=["int", "float", "four-numbers", "switch", "choice"])
def test_cli_config_values_replace_defaults_and_flags_replace_both(cli_calls, tmp_path, argv, key,
                                                                   file_values, flags, read, want):
    _, run = cli_calls
    config = tmp_path / "cfg.json"
    got = [read(run(*argv))]
    for value, extra in zip(file_values, ([], flags)):
        config.write_text(json.dumps({key: value}))
        got.append(read(run(*argv, "--config", str(config), *extra)))
    assert tuple(got) == want


def test_cli_quiet_suppresses_chatter(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    assert cli(["generate", "--n-events", "3", "--seed", "1", "--out", str(data),
                "--quiet", *SMALL_FLAGS]) == 0
    assert capsys.readouterr().out == ""


def test_cli_config_file_rejects_keys_that_name_no_flag(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--seed", "3", "--out", str(data), *SMALL_FLAGS])
    out = tmp_path / "r.json"
    for bad in ({"n_mct": 0}, {"no_beam_init": True}):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"algo": "mcts", "lam": 1.5, **bad}))
        capsys.readouterr()
        code = cli(["cluster", "--config", str(cfg), "--in", str(data), "--out", str(out),
                    "--seed", "3"])
        assert code == 1
        assert next(iter(bad)) in capsys.readouterr().err
        assert not out.exists()
    # a key of another subcommand's flag is fine: one file serves them all
    cfg.write_text(json.dumps({"algo": "greedy", "n_events": 7, "steps": 5}))
    assert cli(["cluster", "--config", str(cfg), "--in", str(data), "--out", str(out),
                "--seed", "3"]) == 0


@pytest.mark.parametrize("command", ["cluster", "evaluate"])
def test_cli_checks_algo_before_reading_the_dataset(tmp_path, capsys, monkeypatch, command):
    # The dataset was read, and every truth tree scored, before a missing
    # --algo was reported.
    _no_input_is_read(monkeypatch)
    monkeypatch.chdir(tmp_path)
    Path("ev.jsonl").write_text("")
    argv = [command, "--in", "ev.jsonl"] + (["--out", "r.json"] if command == "evaluate" else [])
    assert cli(argv) == 1
    assert capsys.readouterr().err == "usage error: --algo is required\n"


def test_cli_names_an_input_file_that_holds_no_event(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path("ev.jsonl").write_text("\n \n")
    for argv in (["cluster", "--algo", "greedy"], ["mle"], ["train", "--steps", "2", "--out", "w.bin"],
                 ["evaluate", "--algo", "greedy", "--out", "r.json"]):
        assert cli(argv + ["--in", "ev.jsonl"]) == 2, argv
        assert capsys.readouterr().err == "error: dataset ev.jsonl is empty\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ev.jsonl"]


def test_cli_generate_rejects_fewer_than_one_event(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    for n in ("0", "-3"):
        assert cli(["generate", "--n-events", n, "--out", str(data), *SMALL_FLAGS]) == 1
        assert "--n-events" in capsys.readouterr().err
        assert not data.exists()


def test_cli_evaluate_rejects_fewer_than_one_event(tmp_path, capsys, monkeypatch):
    import jetclust.cli as cmod

    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--seed", "5", "--out", str(data), *SMALL_FLAGS])

    def no_load(*args, **kwargs):
        raise AssertionError("the dataset was read for n_eval < 1")

    monkeypatch.setattr(cmod, "load_events", no_load)
    capsys.readouterr()
    out = tmp_path / "r.json"
    for n in ("0", "-1"):
        code = cli(["evaluate", "--algo", "greedy", "--n-eval", n, "--in", str(data),
                    "--out", str(out), "--seed", "5"])
        assert code == 1
        assert "--n-eval" in capsys.readouterr().err
    assert not out.exists()


def test_cli_compare_rejects_result_with_missing_field(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--seed", "11", "--out", str(data), *SMALL_FLAGS])
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    cli(["evaluate", "--algo", "greedy", "--in", str(data), "--out", str(good),
         "--seed", "11"])
    bad.write_text(json.dumps({"schema_version": 1, "planner": "greedy"}))
    capsys.readouterr()
    assert cli(["compare", str(good), str(bad), "--out", str(tmp_path / "cmp")]) == 2
    assert "params" in capsys.readouterr().err


def test_cli_rejects_weights_header_without_shapes(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--seed", "9", "--out", str(data), *SMALL_FLAGS])
    weights = tmp_path / "w.bin"
    cli(["train", "--mode", "bc", "--in", str(data), "--steps", "5", "--seed", "9",
         "--out", str(weights), "--quiet"])
    header, payload = weights.read_bytes().split(b"\n", 1)
    obj = json.loads(header)
    del obj["shapes"]
    weights.write_bytes(json.dumps(obj).encode() + b"\n" + payload)
    capsys.readouterr()
    code = cli(["evaluate", "--algo", "policy", "--prior", "nn", "--weights", str(weights),
                "--in", str(data), "--out", str(tmp_path / "r.json"), "--seed", "9"])
    assert code == 2
    assert "shapes" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("dtype", ">f8"), ("dtype", "<f4"), ("dtype", None),
                                          ("include_ps", "no"), ("include_ps", False),
                                          ("include_ps", 1), ("include_ps", None)])
def test_cli_rejects_weights_header_fields_it_acts_on(tmp_path, capsys, field, value):
    # None drops the field.  The weights are the network's with the p_s
    # feature, so its include_ps must be true itself, not a truthy value.
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--seed", "9", "--out", str(data), *SMALL_FLAGS])
    weights = tmp_path / "w.bin"
    cli(["train", "--mode", "bc", "--in", str(data), "--steps", "5", "--seed", "9",
         "--out", str(weights), "--quiet"])
    header, payload = weights.read_bytes().split(b"\n", 1)
    obj = json.loads(header)
    if value is None:
        del obj[field]
    else:
        obj[field] = value
    weights.write_bytes(json.dumps(obj).encode() + b"\n" + payload)
    capsys.readouterr()
    result = tmp_path / "r.json"
    code = cli(["evaluate", "--algo", "policy", "--prior", "nn", "--weights", str(weights),
                "--in", str(data), "--out", str(result), "--seed", "9"])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not result.exists()


def _readme_commands() -> list[str]:
    """Every `jetclust ...` command in README.md, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = (line.strip() for line in text.replace("\\\n", " ").splitlines())
    return [line for line in lines if line.startswith("jetclust ")]


def test_readme_cli_examples_parse():
    commands = _readme_commands()
    assert len(commands) >= 9
    parser = _build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])  # argparse exits on an unknown flag


@pytest.mark.parametrize("spec, message", [
    ({"algo": "policy", "prior": "nn"}, "prior 'nn' needs a weights file"),
    ({"algo": "mcts", "prior": "nn", "weights": ""}, "prior 'nn' needs a weights file"),
    ({"algo": "policy", "prior": "magic"}, "unknown prior: 'magic'"),
    ({"algo": "mcts", "prior": "magic"}, "unknown prior: 'magic'"),
])
def test_build_planner_names_a_prior_it_cannot_build(small_config, spec, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_planner(spec, small_config)


def test_build_planner_rejects_unknown_spec_keys(small_events, small_config):
    spec = {"algo": "mcts", "n_mcts": 2, "use_beam_init": False, "n_mct": 0}
    for run in (lambda: build_planner(spec, small_config),
                lambda: evaluate(small_events, spec, n_eval=2, seeds=[0])):
        with pytest.raises(ValueError) as exc:
            run()
        assert "use_beam_init" in str(exc.value) and "n_mct" in str(exc.value)
    # every key the CLI can put into a spec is known
    build_planner({"algo": "mcts", "b": 2, "n_mcts": 2, "c": 1.0, "prior": "random",
                      "final_rule": "max-rollout", "rollout_rule": "puct"}, small_config)


@pytest.mark.parametrize("field", ["id", "n_leaves", "ll"])
def test_cli_compare_rejects_per_event_entry_without_field(tmp_path, capsys, field):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--seed", "11", "--out", str(data), *SMALL_FLAGS])
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    for path in (good, bad):
        cli(["evaluate", "--algo", "greedy", "--in", str(data), "--out", str(path),
             "--seed", "11"])
    obj = json.loads(bad.read_text())
    del obj["per_event"][1][field]
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli(["compare", str(good), str(bad), "--out", str(tmp_path / "cmp")]) == 2
    err = capsys.readouterr().err
    assert f"per_event[1] lacks {field}" in err
    assert "Traceback" not in err


def test_cli_compare_rejects_results_without_per_event_entries(tmp_path, capsys):
    # compare used to write three CSVs and then fail on an IndexError.
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--seed", "11", "--out", str(data), *SMALL_FLAGS])
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        cli(["evaluate", "--algo", "greedy", "--in", str(data), "--out", str(path),
             "--seed", "11"])
        obj = json.loads(path.read_text())
        obj["per_event"] = []
        path.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli(["compare", str(a), str(b), "--out", str(tmp_path / "cmp")]) == 2
    err = capsys.readouterr().err
    assert "per_event is empty" in err
    assert "Traceback" not in err
    assert sorted(path.name for path in tmp_path.iterdir()) == ["a.json", "b.json", "d.jsonl"]


def _set_at(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


_MISTYPED = [
    (("per_event", 0, "ll"), "x"), (("per_event", 0, "ll"), None), (("per_event", 0, "id"), [1]),
    (("per_event", 0, "id"), True), (("per_event", 0, "n_leaves"), "5"), (("per_event", 1), ["id", "n_leaves", "ll"]),
    (("params",), [1]), (("dataset_hash",), ["a"]), (("planner",), 3), (("per_seed", 0), "x"),
    (("mean_ll",), math.nan), (("sem_ll",), 10**400), (("per_event", 2, "ll"), math.inf),
]


@pytest.mark.parametrize("path, value", _MISTYPED, ids=[
    "/".join(map(str, path)) + ("=nan" if value != value else f":{type(value).__name__}") for path, value in _MISTYPED])
def test_cli_compare_rejects_a_field_of_the_wrong_type(tmp_path, capsys, path, value):
    # The first five ended compare in a traceback, and a NaN mean_ll left
    # the CSVs and part of the JSON behind.
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "4", "--seed", "11", "--out", str(data), *SMALL_FLAGS])
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    for out in (good, bad):
        cli(["evaluate", "--algo", "greedy", "--in", str(data), "--out", str(out), "--seed", "11"])
    obj = json.loads(bad.read_text())
    _set_at(obj, path, value)
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert cli(["compare", str(good), str(bad), "--out", str(tmp_path / "cmp")]) == 2
    err = capsys.readouterr().err
    assert "malformed run result: " + "".join(f"[{k}]" if type(k) is int else f".{k}" for k in path)[1:] in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "d.jsonl", "good.json"]


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A small dataset, a greedy run result on it and BC weights."""
    root = tmp_path_factory.mktemp("valid")
    files = {name: root / name for name in ("d.jsonl", "result.json", "w.bin")}
    cli(["generate", "--n-events", "3", "--seed", "13", "--out", str(files["d.jsonl"]), "--quiet",
         *SMALL_FLAGS])
    cli(["evaluate", "--algo", "greedy", "--in", str(files["d.jsonl"]), "--out", str(files["result.json"]),
         "--quiet"])
    cli(["train", "--in", str(files["d.jsonl"]), "--steps", "5", "--out", str(files["w.bin"]), "--quiet"])
    return files


def _json_paths(obj, prefix=()):
    """The path of every value inside a JSON object or array."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _json_paths(value, prefix + (key,))


_json_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.sampled_from([10**400, -10**400, 2**64]), st.floats(),
    st.text(max_size=3), st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def _mutated(text: str, data) -> str:
    """text, one JSON object, with one field dropped, retyped or written
    twice (json.loads keeps the last), or the text cut short."""
    obj = json.loads(text)
    op = data.draw(st.sampled_from(["drop", "retype", "duplicate", "truncate"]))
    if op == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    if op == "duplicate":
        copy = f"{json.dumps(data.draw(st.sampled_from(sorted(obj))))}: {json.dumps(data.draw(_json_values))}"
        return "{" + copy + ", " + text[1:] if data.draw(st.booleans()) else text[:-1] + ", " + copy + "}"
    path = data.draw(st.sampled_from(list(_json_paths(obj))))
    if op == "drop":
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
    else:
        _set_at(obj, path, data.draw(_json_values))
    return json.dumps(obj)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_result_files_load_or_fail_cleanly(valid_files, data):
    text = _mutated(valid_files["result.json"].read_text().strip(), data)
    good = jc.RunResult.from_json(valid_files["result.json"].read_text())
    try:
        compare([good, jc.RunResult.from_json(text)])
    except ValueError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / "bad.json"
        bad.write_text(text)
        code = cli(["compare", str(valid_files["result.json"]), str(bad), "--out", f"{tmp}/cmp", "--quiet"])
        assert code in (0, 2)
        if code == 2:
            assert [p.name for p in Path(tmp).iterdir()] == ["bad.json"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_weights_files_load_or_fail_cleanly(valid_files, data, small_config):
    header, payload = valid_files["w.bin"].read_bytes().split(b"\n", 1)
    if data.draw(st.booleans()):
        blob = _mutated(header.decode(), data).encode() + b"\n" + payload
    else:
        blob = (header + b"\n" + payload)[:data.draw(st.integers(0, len(header) + len(payload)))]
    with tempfile.TemporaryDirectory() as tmp:
        weights, result = Path(tmp) / "w.bin", Path(tmp) / "r.json"
        weights.write_bytes(blob)
        try:
            w, head = jc.load_weights(weights)
        except ValueError:
            pass
        else:
            jc.NeuralPolicy(w, small_config, include_ps=head["include_ps"])
            assert np.isfinite(w.theta).all()
        code = cli(["evaluate", "--algo", "policy", "--prior", "nn", "--weights", str(weights),
                    "--in", str(valid_files["d.jsonl"]), "--out", str(result), "--quiet"])
        assert code in (0, 2)
        assert result.exists() == (code == 0)


def test_cli_config_file_rejects_values_of_the_wrong_type(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cfg = tmp_path / "cfg.json"
    for bad in ({"n_events": "many"}, {"n_events": 2.5}, {"seed": True}, {"quiet": 1},
                {"root": [25.0, 0.0, 15.0]}, {"lam": [1.5]}, {"out": 3}):
        cfg.write_text(json.dumps({"n_events": 3, **bad}))
        capsys.readouterr()
        assert cli(["generate", "--config", str(cfg), "--out", str(data)]) == 1
        err = capsys.readouterr().err
        assert next(iter(bad)) in err and str(cfg) in err
        assert not data.exists()
    for bad in ({"algo": "quantum"}, {"final_rule": "most-visits"}, {"b": "five"}):
        cfg.write_text(json.dumps(bad))
        assert cli(["cluster", "--config", str(cfg), "--in", str(data)]) == 1
        assert next(iter(bad)) in capsys.readouterr().err
    # values a flag would parse from its string are fine, as on the command line
    cfg.write_text(json.dumps({"n_events": "3", "lam": 1, "quiet": True, "out": str(data),
                               "root": [25, 0, 0, 15]}))
    assert cli(["generate", "--config", str(cfg)]) == 0
    assert len(data.read_text().splitlines()) == 3
    # and reach the planner spec as the flag's type
    out = tmp_path / "r.json"
    cfg.write_text(json.dumps({"algo": "beam", "b": "2"}))
    assert cli(["cluster", "--config", str(cfg), "--in", str(data), "--out", str(out)]) == 0
    assert jc.RunResult.from_json(out.read_text()).params == {"b": 2}


@pytest.mark.parametrize("spec,key", [
    ({"algo": "beam", "b": 2.7}, "b"),
    ({"algo": "beam", "b": "five"}, "b"),
    ({"algo": "beam", "b": True}, "b"),
    ({"algo": "mcts", "b": 1.5}, "b"),
    ({"algo": "mcts", "n_mcts": 2.0}, "n_mcts"),
    ({"algo": "mcts", "n_mcts": False}, "n_mcts"),
    ({"algo": "mcts", "c": "1"}, "c"),
    ({"algo": "mcts", "c": math.nan}, "c"),
], ids=["beam-float-b", "beam-str-b", "beam-bool-b", "mcts-float-b", "float-n_mcts",
        "bool-n_mcts", "str-c", "nan-c"])
def test_build_planner_checks_spec_values(small_events, small_config, spec, key):
    for run in (lambda: build_planner(spec, small_config),
                lambda: evaluate(small_events, spec, n_eval=2, seeds=[0])):
        with pytest.raises(ValueError, match=f"planner spec {key}="):
            run()
    # an int is a real number, and a numpy int is an int
    build_planner({"algo": "mcts", "c": 2, "b": np.int64(2), "n_mcts": 2}, small_config)


def test_cli_generate_rejects_non_finite_density_flags(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    for flags, reason in ((["--lam", "nan"], "finite"), (["--t-cut", "inf"], "finite"),
                          (["--root", "25", "nan", "0", "15"], "finite"),
                          # finite, but its normaliser log(1 - exp(-lam)) is not
                          (["--lam", "1e-300"], "lam 1e-300 is too small")):
        assert cli(["generate", "--n-events", "2", "--out", str(data), *flags]) == 2
        assert reason in capsys.readouterr().err
        assert not data.exists()


_UNSHOWERABLE_ROOTS = [("1e160", "0", "0", "1e150"), ("1e154", "0", "0", "0"), ("1e155", "0", "0", "0")]


@pytest.mark.parametrize("root", _UNSHOWERABLE_ROOTS, ids=["infinite-t", "t-squared-overflows", "t-overflows"])
def test_cli_generate_rejects_a_root_whose_mass_squared_overflows(tmp_path, capsys, root):
    data = tmp_path / "d.jsonl"
    assert cli(["generate", "--n-events", "2", "--out", str(data), "--root", *root]) == 2
    err = capsys.readouterr().err
    assert f"root {tuple(map(float, root))}" in err and "overflows" in err
    assert not data.exists()
    assert list(tmp_path.iterdir()) == []


def test_load_rejects_a_stored_root_whose_mass_squared_overflows(tmp_path, capsys, small_config):
    lines = [event_to_json(e) for e in jc.generate_events(small_config, 3)]
    obj = json.loads(lines[1])
    obj["config"]["root"] = [1e154, 0.0, 0.0, 0.0]
    lines[1] = json.dumps(obj)
    data = tmp_path / "d.jsonl"
    data.write_text("\n".join(lines) + "\n")
    assert cli(["cluster", "--algo", "greedy", "--in", str(data)]) == 2
    err = capsys.readouterr().err
    assert f"{data}:2: " in err and "root (1e+154, 0.0, 0.0, 0.0)" in err and "overflows" in err


def test_cli_rejects_a_root_with_negative_energy(tmp_path, capsys, small_config):
    # Its mass-squared passes; the kernel's "child energies must be
    # non-negative" used to be the only message, naming neither the root nor --root.
    data = tmp_path / "d.jsonl"
    assert cli(["generate", "--n-events", "2", "--out", str(data), "--root", "-25", "0", "0", "15"]) == 2
    err = capsys.readouterr().err
    assert "root (-25.0, 0.0, 0.0, 15.0) has negative energy" in err
    assert list(tmp_path.iterdir()) == []
    lines = [event_to_json(e) for e in jc.generate_events(small_config, 3)]
    obj = json.loads(lines[1])
    obj["config"]["root"] = [-5.0, 0.0, 0.0, 1.5]
    lines[1] = json.dumps(obj)
    data.write_text("\n".join(lines) + "\n")
    assert cli(["cluster", "--algo", "greedy", "--in", str(data)]) == 2
    err = capsys.readouterr().err
    assert f"{data}:2: " in err and "root (-5.0, 0.0, 0.0, 1.5) has negative energy" in err


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}

    def run(*args):
        return subprocess.run([sys.executable, "-m", *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("jetclust", "generate", "--n-events", "2", "--out", "x.jsonl")
    assert done.returncode == 0, done.stderr
    assert len(jc.load_events(tmp_path / "x.jsonl")) == 2
    done = run("jetclust.cli", "generate", "--n-events", "1", "--out", "y.jsonl", "--quiet")
    assert done.returncode == 0, done.stderr
    assert len(jc.load_events(tmp_path / "y.jsonl")) == 1
    done = run("jetclust", "generate", "--bogus", "--out", "z.jsonl")
    assert done.returncode == 1
    assert "--bogus" in done.stderr
    assert not (tmp_path / "z.jsonl").exists()


# ---------------------------------------------------------------------------
# run-result aggregates, recomputed on load
# ---------------------------------------------------------------------------

def _greedy_result(tmp_path, name="good.json", seeds=1):
    data = tmp_path / "d.jsonl"
    if not data.exists():
        cli(["generate", "--n-events", "4", "--seed", "11", "--out", str(data), "--quiet", *SMALL_FLAGS])
    path = tmp_path / name
    cli(["evaluate", "--algo", "greedy", "--in", str(data), "--out", str(path), "--seeds", str(seeds),
         "--quiet"])
    return path


def _compare_fails(tmp_path, capsys, good, bad, *needles):
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert cli(["compare", str(good), str(bad), "--out", str(tmp_path / "cmp")]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err
    for needle in needles:
        assert needle in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_result_means_that_disagree_with_per_event_are_rejected(tmp_path, capsys):
    # Every per_event ll at 1.5e308 under the stored mean_ll of -10.47 used to
    # load; compare ranked the run at -10.47, then overflowed in by_leaf_count
    # and exited 2 naming neither the file nor the field.
    good = _greedy_result(tmp_path)
    bad = tmp_path / "bad.json"
    obj = json.loads(good.read_text())
    for e in obj["per_event"]:
        e["ll"], e["n_leaves"] = 1.5e308, 3
    bad.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=r"per_seed\[0\]\.mean_ll .* recomputed from per_event"):
        jc.RunResult.from_json(bad.read_text())
    _compare_fails(tmp_path, capsys, good, bad, "per_seed[0].mean_ll")


@pytest.mark.parametrize("field", ["mean_ll", "sem_ll", "mean_cost", "per_seed/1/mean_ll",
                                   "per_seed/0/mean_cost"])
def test_a_stored_mean_beyond_the_tolerance_is_rejected(tmp_path, capsys, field):
    good = _greedy_result(tmp_path, seeds=2)
    obj = json.loads(good.read_text())
    path = [int(k) if k.isdigit() else k for k in field.split("/")]
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    stored = parent[path[-1]]
    for delta, loads in ((harness.RESULT_MEAN_TOLERANCE / 4, True), (1e-6, False)):
        parent[path[-1]] = stored + delta
        text = json.dumps(obj)
        if loads:
            jc.RunResult.from_json(text)
        else:
            with pytest.raises(ValueError, match=re.escape(field.replace("/1/", "[1].").replace("/0/", "[0]."))):
                jc.RunResult.from_json(text)
            bad = tmp_path / "bad.json"
            bad.write_text(text)
            _compare_fails(tmp_path, capsys, good, bad)


def test_per_seed_must_list_the_seeds_of_per_event(tmp_path):
    obj = json.loads(_greedy_result(tmp_path, seeds=2).read_text())
    obj["per_seed"].reverse()
    with pytest.raises(ValueError, match=r"per_seed holds the seeds \[1, 0\], per_event \[0, 1\]"):
        jc.RunResult.from_json(json.dumps(obj))
    obj["per_seed"] = obj["per_seed"][:1]
    with pytest.raises(ValueError, match="per_seed holds the seeds"):
        jc.RunResult.from_json(json.dumps(obj))


def test_a_non_finite_leaf_count_mean_names_the_file_and_field(tmp_path, capsys):
    # Finite per-seed means can hide a leaf count whose LLs overflow in sum.
    good = _greedy_result(tmp_path)
    obj = json.loads(good.read_text())
    for k, e in enumerate(obj["per_event"]):
        e["ll"], e["n_leaves"] = (1.5e308, 3) if k % 2 == 0 else (-1.5e308, 4)
    lls = [e["ll"] for e in obj["per_event"]]
    obj["per_seed"][0]["mean_ll"] = obj["mean_ll"] = float(np.mean(lls))
    assert math.isfinite(obj["mean_ll"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="per_event ll of the 3-leaf events has the non-finite mean inf"):
        jc.RunResult.from_json(bad.read_text())
    _compare_fails(tmp_path, capsys, good, bad, "3-leaf events")


@pytest.mark.parametrize("spec", [
    {"algo": "greedy"}, {"algo": "beam", "b": 3}, {"algo": "random"},
    {"algo": "mcts", "n_mcts": 3, "b": 2, "prior": "proportional-to-ps"},
    {"algo": "mcts", "n_mcts": 3, "b": 0, "prior": "random", "c": 0.7},
])
def test_every_result_evaluate_writes_loads(small_events, spec):
    for seeds in ([0], [3, 1, 2]):
        result = evaluate(small_events, spec, n_eval=6, seeds=seeds)
        assert jc.RunResult.from_json(result.to_json()) == result


def test_evaluate_rejects_repeated_seeds(small_events):
    with pytest.raises(ValueError, match="seeds must be distinct"):
        evaluate(small_events, {"algo": "greedy"}, n_eval=2, seeds=[4, 4])


# ---------------------------------------------------------------------------
# dataset lines as a property: a mutated line loads to a valid event or
# is rejected at its path:line
# ---------------------------------------------------------------------------

def _tree_mutation(obj, data):
    """Make the truth tree of event obj cyclic or non-binary, or point one
    of its links out of range."""
    nodes = obj["truth"]["nodes"]
    internal = [k for k, node in enumerate(nodes) if node["children"] is not None]
    k = data.draw(st.sampled_from(internal))
    op = data.draw(st.sampled_from(["cycle", "self", "three", "one", "range", "parent"]))
    children = nodes[k]["children"]
    if op == "cycle":  # a child that is the root or one of k's ancestors
        ancestors, a = [], k
        while a is not None:
            ancestors.append(a)
            a = nodes[a]["parent"]
        children[data.draw(st.integers(0, 1))] = data.draw(st.sampled_from(ancestors))
    elif op == "self":
        nodes[children[0]]["children"] = [k, children[0]]
    elif op == "three":
        children.append(data.draw(st.integers(0, len(nodes) - 1)))
    elif op == "one":
        del children[data.draw(st.integers(0, 1))]
    elif op == "range":
        children[data.draw(st.integers(0, 1))] = data.draw(
            st.sampled_from([len(nodes), -1, 2**63, 10**400, -(10**400)]))
    else:
        nodes[children[0]]["parent"] = data.draw(st.sampled_from([len(nodes), -1, 10**400, k + 0.0]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_event_lines_load_or_fail_at_their_line(valid_files, data):
    lines = valid_files["d.jsonl"].read_text().splitlines()
    at = data.draw(st.integers(0, len(lines) - 1), label="line")
    kind = data.draw(st.sampled_from(["field", "tree", "repeat"]))
    if kind == "tree":
        obj = json.loads(lines[at])
        _tree_mutation(obj, data)
        lines[at] = json.dumps(obj)
    elif kind == "repeat":  # another line's event, id included
        lines[at] = lines[data.draw(st.sampled_from([k for k in range(len(lines)) if k != at]))]
    else:
        lines[at] = _mutated(lines[at], data)
    with tempfile.TemporaryDirectory() as tmp:
        path, weights = Path(tmp) / "d.jsonl", Path(tmp) / "w.bin"
        path.write_text("\n".join(lines) + "\n")
        try:
            events = harness.load_events(path)
        except ValueError as exc:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc)), str(exc)
            events = None
        else:
            assert len({e.event_id for e in events}) == len(events)
            for e in events:
                check_leaves(e.leaves)
                assert e.truth.leaf_momenta() == list(e.leaves)
                assert abs(jc.tree_log_likelihood(e.truth, e.config) - e.truth_ll) <= harness.TRUTH_LL_TOLERANCE
        code = cli(["train", "--mode", "bc", "--in", str(path), "--steps", "5", "--out", str(weights),
                    "--quiet"])
        if events is None:
            assert code == 2 and not weights.exists()
        else:
            assert code == 0 and weights.exists()
