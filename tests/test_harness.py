import collections
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import re
import shlex
import shutil
import stat
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
from jetclust.policy import feature_dim, init_weights
from jetclust.rng import make_rng

import cli_contracts
from cli_contracts import out_argv, schema_2, too_long_outs
from conftest import SMALL_CONFIG
from oracles import reference_dumps


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
        st.lists(_floats, max_size=6),  # plain floats, as in a momentum
        st.lists(_floats, max_size=6).map(tuple),
        st.dictionaries(_keys, inner, max_size=5),
        st.builds(_Pair, inner, inner),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None)
@given(value=_values)
def test_dumps_matches_the_reference_writer(value):
    assert _outcome(dumps, value) == _outcome(reference_dumps, value)


def _reference_event_obj(event) -> dict:
    """The fields of event's dataset line, as the dict the event writer
    once built for dumps to walk."""
    config = event.config
    return {
        "schema_version": harness.EVENT_SCHEMA_VERSION,
        "id": event.event_id,
        "config": {"lam": config.lam, "t_cut": config.t_cut, "root": list(config.root.as_tuple()),
                   "rng_seed": config.rng_seed},
        "truth": {"nodes": [{"p": list(node.momentum.as_tuple()), "parent": node.parent,
                             "children": None if node.children is None else list(node.children)}
                            for node in event.truth.nodes],
                  "root": event.truth.root_index},
        "truth_ll": event.truth_ll,
    }


def _written(write, value):
    """write(value), or the type and message of the exception it raised."""
    try:
        return write(value)
    except Exception as exc:
        return type(exc), str(exc)


def _reference_event_line(event):
    return reference_dumps(_reference_event_obj(event))


def _with_components(event, values, truth_ll, shared=True, root=None):
    """event with the components of its truth momenta taken in turn from
    values, its leaves the new momenta of its truth leaves (the same objects
    if shared, else equal copies of new float objects, so that a NaN copy is
    not its original), its truth_ll and, if given, its config's root
    replaced."""
    draw = itertools.cycle(values).__next__
    moved = {id(node.momentum): jc.FourMomentum(draw(), draw(), draw(), draw()) for node in event.truth.nodes}
    nodes = [jc.TreeNode(moved[id(node.momentum)], node.parent, node.children, node.split_ll)
             for node in event.truth.nodes]
    leaves = [moved[id(p)] for p in event.leaves]
    if not shared:
        leaves = [jc.FourMomentum(*(float.fromhex(x.hex()) for x in p.as_tuple())) for p in leaves]
    config = event.config if root is None else dataclasses.replace(event.config, root=root)
    truth = jc.Tree(nodes, event.truth.root_index, list(event.truth.leaf_indices))
    return harness.EventRecord(event.event_id, config, tuple(leaves), truth, truth_ll)


_EDGE_COMPONENTS = [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, -2.5, 0.1, -0.30000000000000004, -1e-05]


def test_event_to_json_matches_the_reference_writer(desk_config):
    events = jc.generate_events(desk_config, 200)
    for event in events:
        assert event_to_json(event) == _reference_event_line(event)
    # Edge momenta and truth_ll values, leaves shared with the truth tree or
    # not, and a config root with a negative zero.
    event = next(e for e in events if e.n_leaves >= 6)
    root = jc.FourMomentum(25.0, -0.0, 0.0, -15.0)
    for start in range(len(_EDGE_COMPONENTS)):
        values = _EDGE_COMPONENTS[start:] + _EDGE_COMPONENTS[:start]
        for truth_ll in (0.0, -0.0, 5e-324, -1e300, -46.75):
            for shared in (True, False):
                edge = _with_components(event, values, truth_ll, shared, root if start % 2 else None)
                line = event_to_json(edge)
                assert line == _reference_event_line(edge)
                assert "-0," not in line and "-0]" not in line and "-0}" not in line
    # A non-finite truth_ll or component raises the ValueError dumps raises,
    # naming the first non-finite float in the line.
    for bad in (math.nan, math.inf, -math.inf):
        cases = [_with_components(event, _EDGE_COMPONENTS, bad),
                 _with_components(event, [1.0, 2.0, bad, -0.0], -1.0),
                 _with_components(event, [bad, 1.0], math.nan, shared=False)]
        for edge in cases:
            raised = _written(event_to_json, edge)
            assert raised == _written(_reference_event_line, edge)
            assert raised == (ValueError, f"cannot serialize non-finite float {bad!r}")


_DESK_EVENT = jc.generate_events(jc.DESK_CONFIG, 1)[0]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.one_of(st.floats(), _edge_floats), min_size=1, max_size=12),
       truth_ll=st.one_of(st.floats(), _edge_floats), shared=st.booleans())
def test_event_to_json_matches_the_reference_writer_on_any_floats(values, truth_ll, shared):
    event = _with_components(_DESK_EVENT, values, truth_ll, shared)
    assert _written(event_to_json, event) == _written(_reference_event_line, event)


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

# The dataset of generate_events(DESK_CONFIG, 200): the sha256 of the file
# write_events writes, and _sampled_ll_digest of its events.
DESK_200_SHA256 = "fcfeede65c95e530b59faa57dea07a29e5b67a87f4c6bbb5390a40fd32e7073f"
DESK_200_LL_DIGEST = "362427ad876dcc7bcbf0d992c9384ea017329c751aa30f7d72dffaff2ed74b34"


def _sampled_ll_digest(events) -> str:
    """sha256 over every truth node's split_ll.hex() ("-" for a leaf's None)
    and every truth_ll.hex(), event by event."""
    digest = hashlib.sha256()
    for event in events:
        for node in event.truth.nodes:
            digest.update(b"-;" if node.split_ll is None else node.split_ll.hex().encode() + b";")
        digest.update(event.truth_ll.hex().encode() + b"\n")
    return digest.hexdigest()


def test_desk_dataset_bytes_and_sampled_lls_are_pinned(tmp_path):
    # One ulp in the sampler or one digit less in the writer changes these.
    events = jc.generate_events(jc.DESK_CONFIG, 200)
    assert _sampled_ll_digest(events) == DESK_200_LL_DIGEST
    path = tmp_path / "d.jsonl"
    jc.write_events(path, events)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DESK_200_SHA256


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
    (lambda obj: _with_leaf_p(obj, lambda p: p[:3]), "not four finite numbers"),
    (lambda obj: json.dumps({**obj, "schema_version": 99}), "schema_version 99"),
    (lambda obj: json.dumps({**obj, "schema_version": 1}), "schema_version 1"),
    (lambda obj: json.dumps(schema_2(obj)), "event has schema_version 2, this version reads 3"),
    (lambda obj: _with_leaf_p(obj, lambda p: [math.nan, 0, 0, 1]), "not four finite numbers"),
    (lambda obj: _with_leaf_p(obj, lambda p: [10**400, 0, 0, 1]), "0, 0, 1] is not four finite numbers"),
    (lambda obj: json.dumps({**obj, "truth_ll": math.inf}), "truth_ll inf is not a finite number"),
    (lambda obj: json.dumps({**obj, "config": {**obj["config"], "lam": math.nan}}),
     "config.lam nan is not a finite number"),
    (lambda obj: json.dumps({**obj, "config": {**obj["config"], "lam": 1e-300}}),
     "lam 1e-300 is too small"),
    (lambda obj: json.dumps({**obj, "config": {**obj["config"], "rng_seed": 8}}),
     "differs from the first event"),
    (lambda obj: json.dumps({**obj, "config": {**obj["config"], "rng_seed": 8.0}}),
     "config.rng_seed is float, not int"),
], ids=["invalid-json", "missing-truth_ll", "three-number-leaf", "other-schema-version",
        "schema-1-line", "schema-2-line", "nan-leaf", "huge-int-leaf", "infinite-truth_ll", "nan-lam", "tiny-lam",
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


@pytest.mark.parametrize("corrupt, shown", [
    (lambda obj: _set(obj["truth"]["nodes"][2], "p", [10**400, 0, 0, 1]),
     "truth.nodes[2].p [100000000000000000...0000000000000000000, 0, 0, 1] is not four finite numbers"),
    (lambda obj: _set(obj, "truth_ll", "x" * 5000), "truth_ll 'xxxxxxxxxxxx...xxxxxxxxxxxxx' is not a finite number"),
    (lambda obj: _set(obj, "schema_version", 10**400),
     "event has schema_version 100000000000000000...0000000000000000000, this version reads 3"),
    (lambda obj: _set(obj["truth"]["nodes"][0], "children", list(range(1, 1000))),
     "truth tree node 0 has children [1, 2, 3, 4, 5, 6, ...], not two"),
], ids=["huge-int-leaf", "long-string-truth_ll", "huge-int-schema-version", "long-children"])
def test_a_long_value_is_cut_short_in_its_message(tmp_path, small_config, corrupt, shown):
    obj = json.loads(event_to_json(jc.generate_events(small_config, 1)[0]))
    data = tmp_path / "d.jsonl"
    corrupt(obj)
    data.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValueError) as info:
        jc.load_events(data)
    assert str(info.value) == f"{data}:1: {shown}"


def _first_leaf(nodes):
    return next(k for k, node in enumerate(nodes) if node["children"] is None)


def _set(obj, key, value):
    obj[key] = value
    return obj


def _with_leaf_p(obj, change) -> str:
    """The line of event obj with the p of its first truth leaf replaced by change(p)."""
    leaf = obj["truth"]["nodes"][_first_leaf(obj["truth"]["nodes"])]
    leaf["p"] = change(leaf["p"])
    return json.dumps(obj)


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
    (lambda t: t.update(nodes=[{**t["nodes"][t["root"]], "children": None}], root=0),
     "truth tree root 0 is a leaf; an event needs at least 2 leaves"),
    # A line stores no leaves but its truth tree's, so another leaf
    # momentum is caught by the tree's log-likelihood.
    (lambda t: _set(t["nodes"][_first_leaf(t["nodes"])], "p", [9.0, 0.0, 0.0, 1.0]),
     "differs from the truth tree's log-likelihood"),
], ids=["child-out-of-range", "negative-child", "bool-child", "parent-out-of-range",
        "root-out-of-range", "root-with-parent", "one-child", "three-children",
        "child-names-another-parent", "child-twice", "cycle", "root-is-a-leaf", "other-leaf"])
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


@pytest.mark.parametrize("change", ["rotate", "replace"])
def test_write_events_rejects_leaves_that_are_not_the_truth_leaves(tmp_path, small_config, change):
    # Bit k of a BC target is particle k of the event, and a line stores no
    # leaves but its truth tree's, in the sampler's order; so the writer
    # refuses an event whose leaves are others, or in another order, and
    # writes no file.
    events = jc.generate_events(small_config, 20)
    k = next(k for k, e in enumerate(events) if len(set(e.leaves)) >= 3)
    leaves = events[k].leaves
    leaves = leaves[1:] + leaves[:1] if change == "rotate" else (jc.FourMomentum(9.0, 0.0, 0.0, 1.0), *leaves[1:])
    bad = [*events[:k], dataclasses.replace(events[k], leaves=leaves), *events[k + 1:]]
    data = tmp_path / "d.jsonl"
    message = f"event {events[k].event_id}'s leaves are not its truth tree's leaves in pre-order"
    with pytest.raises(ValueError, match=re.escape(message)):
        jc.write_events(data, bad)
    assert not data.exists()
    assert list(tmp_path.iterdir()) == []


def test_loaded_truth_lists_its_leaves_as_the_sampler_did(tmp_path, desk_config):
    # A loaded event demonstrates the same merges as the generated one.
    path = tmp_path / "d.jsonl"
    events = jc.generate(desk_config, 12, path)
    for made, loaded in zip(events, jc.load_events(path)):
        assert loaded.truth.leaf_indices == made.truth.leaf_indices
        assert loaded.truth.leaf_momenta() == list(loaded.leaves)
        # The line stores each momentum once: leaf k is truth leaf k's momentum.
        assert all(p is loaded.truth.nodes[k].momentum
                   for p, k in zip(loaded.leaves, loaded.truth.leaf_indices, strict=True))
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
    with pytest.raises(ValueError, match=f"{re.escape(str(data))}:2: id is .*, not int"):
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



@pytest.mark.parametrize("blob, lineno, reason", [
    (b"\xff\xfe{}\n", 1, "can't decode byte 0xff in position 0"),
    (b'{"note": "caf\xe9"}\n', 2, "can't decode byte 0xe9 in position 13"),
], ids=["utf16-bom", "latin-1-byte"])
def test_a_dataset_that_is_not_utf8_names_its_file_and_line(tmp_path, capsys, small_config, blob, lineno, reason):
    # Such a byte used to raise from the line iterator, outside the
    # per-line check, so the message named neither the file nor the line.
    data = tmp_path / "d.jsonl"
    first = (event_to_json(jc.generate_events(small_config, 1)[0]) + "\n").encode()
    data.write_bytes(blob if lineno == 1 else first + blob)
    with pytest.raises(ValueError, match=f"{re.escape(str(data))}:{lineno}: 'utf-8' codec {reason}"):
        jc.load_events(data)
    assert cli(["cluster", "--algo", "greedy", "--in", str(data)]) == 2
    assert f"{data}:{lineno}: 'utf-8' codec {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    ({"seed": 0}, "config holds keys other than lam, t_cut, root, rng_seed"),
    ({"rng_seed": None}, "config lacks rng_seed"),
    ({"lam": None, "t_cut": None}, "config lacks lam, t_cut"),
], ids=["extra-key", "missing-key", "two-missing-keys"])
def test_a_config_holds_exactly_its_four_keys(tmp_path, small_config, change, message):
    obj = json.loads(event_to_json(jc.generate_events(small_config, 1)[0]))
    obj["config"].update(change)
    obj["config"] = {key: value for key, value in obj["config"].items() if value is not None}
    data = tmp_path / "d.jsonl"
    data.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ValueError, match=f"{re.escape(str(data))}:1: {message}$"):
        jc.load_events(data)


# Every field of a dataset line, by its path (K stands for any index of
# its list), with the kind of value it takes.
_LINE_FIELDS = {
    ("id",): "int", ("config",): "object", ("config", "lam"): "number", ("config", "t_cut"): "number",
    ("config", "root"): "momentum", ("config", "rng_seed"): "int",
    ("truth",): "object", ("truth", "nodes"): "list", ("truth", "nodes", "K"): "object",
    ("truth", "nodes", "K", "p"): "momentum", ("truth", "nodes", "K", "parent"): "int or null",
    ("truth", "nodes", "K", "children"): "list or null", ("truth", "root"): "int", ("truth_ll",): "number",
}
# A value of each JSON kind, with the kinds of field that take it.  A
# number field takes none of them: a huge int is beyond the float range.
# An object field "takes" {} only to reject it for the fields it lacks,
# which names the field too; [] is a list, which a list field takes.
_OTHER_VALUES = [(None, {"int or null", "list or null"}), (True, set()), ("x", set()), ([], {"list", "list or null"}),
                 ({}, set()), (10**400, {"int", "int or null"}), (math.nan, set())]


@pytest.fixture(scope="module")
def desk_lines():
    return [event_to_json(e) for e in jc.generate_events(jc.DESK_CONFIG, 4)]


def _field_path(path) -> str:
    return "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)[1:]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_missing_or_mistyped_field_of_a_line_is_named_by_its_path(desk_lines, tmp_path_factory, data):
    lines = [json.loads(line) for line in desk_lines[:2]]
    lineno = data.draw(st.integers(1, 2))
    obj = lines[lineno - 1]
    pattern, kind = data.draw(st.sampled_from(sorted(_LINE_FIELDS.items())))
    path, parent = [], obj
    for key in pattern:  # K becomes an index of the list it is in
        key = data.draw(st.integers(0, len(parent) - 1)) if key == "K" else key
        path.append(key)
        parent, last = parent[key], parent
    if type(path[-1]) is str and data.draw(st.booleans()):
        del last[path[-1]]
        where = f"{_field_path(path[:-1])} lacks {path[-1]}".lstrip()
    else:
        value = data.draw(st.sampled_from([value for value, kinds in _OTHER_VALUES if kind not in kinds]))
        last[path[-1]] = value
        where = f"{_field_path(path)} "
    file = tmp_path_factory.mktemp("line") / "d.jsonl"
    file.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(ValueError) as exc:
        jc.load_events(file)
    message = str(exc.value)
    assert message.startswith(f"{file}:{lineno}: {where}"), message
    assert "KeyError" not in message and "TypeError" not in message


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


def test_evaluate_rejects_repeated_event_ids(small_events, monkeypatch):
    # An event given twice used to be scored twice, so the result held a
    # repeated (seed, id) row.
    import jetclust.harness as hmod

    def no_planner(spec, config):
        raise AssertionError("a planner was built for repeated event ids")

    monkeypatch.setattr(hmod, "build_planner", no_planner)
    events = [*small_events[:3], small_events[1], small_events[4], small_events[0]]
    with pytest.raises(ValueError, match=re.escape("event ids [0, 1] repeat among the evaluated events")):
        evaluate(events, {"algo": "greedy"}, n_eval=6, seeds=[0])


def test_evaluate_rejects_a_negative_seed(small_events, monkeypatch):
    import jetclust.harness as hmod

    def no_planner(spec, config):
        raise AssertionError("a planner was built for a negative seed")

    monkeypatch.setattr(hmod, "build_planner", no_planner)
    with pytest.raises(ValueError, match="seeds must be non-negative, got -3"):
        evaluate(small_events, {"algo": "greedy"}, n_eval=2, seeds=[0, -3])


def test_a_run_records_only_the_settings_its_planner_reads(small_events, tmp_path):
    # Every key of the spec used to land in params, so a greedy run stored
    # a beam width and an MCTS budget it never read.
    unread = {"b": 2, "n_mcts": 2, "c": 0.5, "prior": "nn", "weights": "w.bin", "final_rule": "max-rollout",
              "rollout_rule": "puct"}
    assert evaluate(small_events, {"algo": "greedy", "b": 5, "n_mcts": 7, "prior": "nn"}, 3, [0]).params == {}
    assert evaluate(small_events, {"algo": "random", **unread}, 3, [0]).params == {}
    assert evaluate(small_events, {"algo": "beam", **unread}, 3, [0]).params == {"b": 2}
    # only an nn prior reads the weights file, so only it records one
    policy = {"algo": "policy", **unread, "prior": "random"}
    assert evaluate(small_events, policy, 3, [0]).params == {"prior": "random"}
    weights = tmp_path / "w.bin"
    jc.save_weights(weights, init_weights(feature_dim(True), make_rng(0)))
    nn = {"algo": "policy", "prior": "nn", "weights": str(weights)}
    assert evaluate(small_events, nn, 3, [0]).params == {"prior": "nn", "weights": str(weights)}
    # mcts reads every key, and params keep the spec's order
    mcts = {"rollout_rule": "puct", "algo": "mcts", **unread, "prior": "random"}
    assert list(evaluate(small_events, mcts, 3, [0]).params) == [k for k in mcts if k not in ("algo", "weights")]
    mcts = {**mcts, "n_mcts": 1, "b": 1, "prior": "nn", "weights": str(weights)}
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
    assert list(json.loads(text)) == ["schema_version", "planner", "params", "dataset_hash", "per_event"]
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


def _run_in_process(argv, cwd):
    """cli(argv) run in cwd: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli(list(argv))
    finally:
        os.chdir(home)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    cli_contracts.make_inputs(directory, _run_in_process)
    return directory


def _contract_tests(contracts):
    """A test per contract name of the table that runs the name's rows
    through cli(), each in a fresh copy of the shared inputs; the cases in
    a name's brackets parametrise its test."""
    cases = {}
    for key, rows in contracts.items():
        name, bracket, case = key.partition("[")
        cases.setdefault("test_" + name, {})[case[:-1] if bracket else None] = rows

    def run(rows, inputs, tmp_path):
        for k, row in enumerate(rows):
            directory = shutil.copytree(inputs, tmp_path / str(k))
            problems = cli_contracts.check(row, directory, _run_in_process)
            assert not problems, f"row {k}: {shlex.join(row.argv)}\n" + "\n".join(problems)

    tests = {}
    for name, by_case in cases.items():
        if list(by_case) == [None]:
            def test(contract_inputs, tmp_path, rows=by_case[None]):
                run(rows, contract_inputs, tmp_path)
        else:
            @pytest.mark.parametrize("case", list(by_case))
            def test(case, contract_inputs, tmp_path, by_case=by_case):
                run(by_case[case], contract_inputs, tmp_path)
        tests[name] = test
    return tests


def test_python_dash_m_runs_the_cli(monkeypatch, capsys):
    # CI runs every row through the installed jetclust with the table's own
    # runner.  Here it runs a few through python -m: a row that cannot pass
    # fails by name, and so does a run of no rows, so a runner that runs
    # nothing or checks nothing cannot pass.
    src = str(Path(__file__).resolve().parents[1] / "src")
    monkeypatch.setenv("PYTHONPATH", src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    generate = cli_contracts.CONTRACTS["cli_runs_each_subcommand[generate]"]
    bogus = [r for r in cli_contracts.CONTRACTS["cli_exit_codes"] if "--bogus" in r.argv]
    wrong = cli_contracts.row("generate --n-events 1 --out y.jsonl --quiet", 0, writes=("y.jsonl", "z.jsonl"))
    rows = {"generate": generate, "bogus": bogus, "wrong": [wrong]}
    assert cli_contracts.main([sys.executable, "-m", "jetclust"], rows) == 1
    printed = capsys.readouterr().out
    assert "FAIL wrong row 0: generate --n-events 1 --out y.jsonl --quiet\n" in printed
    assert printed.count("FAIL") == 1 and printed.endswith("3 of 4 rows passed\n")
    assert cli_contracts.main([sys.executable, "-m", "jetclust.cli"], {"generate": generate}) == 0
    assert capsys.readouterr().out == "2 of 2 rows passed\n"
    assert cli_contracts.main([sys.executable, "-m", "jetclust"], {}) == 1
    assert capsys.readouterr().out == "no rows to run\n"


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


def test_cli_mle_quiet_prints_only_the_summary(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "15", "--seed", "3", "--out", str(data), "--quiet", *SMALL_FLAGS])
    capsys.readouterr()
    assert cli(["mle", "--in", str(data), "--max-n", "4", "--quiet"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("mean MLE LL over ")


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


def _no_input_is_read(monkeypatch):
    import jetclust.cli as cmod

    monkeypatch.setattr(cmod, "generate", lambda *args: pytest.fail("events were generated"))
    monkeypatch.setattr(cmod, "load_events", lambda path: pytest.fail("the dataset was read"))
    monkeypatch.setattr(cmod, "_load_result", lambda path: pytest.fail("a result file was read"))


def test_cli_out_name_check_falls_back_to_255_bytes(tmp_path, capsys, monkeypatch):
    import jetclust.cli as cmod

    def unknown(path, name):
        raise OSError("no limit known")

    _no_input_is_read(monkeypatch)
    monkeypatch.chdir(tmp_path)
    for pathconf in (unknown, lambda path, name: -1):
        monkeypatch.setattr(cmod.os, "pathconf", pathconf)
        for command, outs in too_long_outs(255).items():
            assert cli(out_argv(command, outs[0])) == 1, command
            assert capsys.readouterr().err.endswith("; its directory allows 255\n")
    assert list(tmp_path.iterdir()) == []


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
        assert cli([*out_argv(command, name), "--quiet"]) == 0, command
        assert (tmp_path / name).stat().st_size > 0
    for r in ("a.json", "b.json"):
        cli(["evaluate", "--algo", "greedy", "--in", "d.jsonl", "--out", r, "--quiet"])
    prefix = "c" * (longest - len("_by_leaf_count.csv"))
    assert cli(out_argv("compare", prefix) + ["--quiet"]) == 0
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


def test_cli_config_values_reach_the_planner_spec_as_the_flags_type(tmp_path, monkeypatch):
    # "2" parses as --b would parse it on the command line.
    monkeypatch.chdir(tmp_path)
    assert cli(["generate", "--n-events", "3", "--out", "d.jsonl", "--quiet", *SMALL_FLAGS]) == 0
    Path("cfg.json").write_text(json.dumps({"algo": "beam", "b": "2"}))
    assert cli(["cluster", "--config", "cfg.json", "--in", "d.jsonl", "--out", "r.json"]) == 0
    assert jc.RunResult.from_json(Path("r.json").read_text()).params == {"b": 2}


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


def _set_at(obj, path, value):
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value


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


@pytest.mark.parametrize("spec,message", [
    ({"algo": "beam", "b": 2.7}, "beam width must be an int >= 1, got 2.7"),
    ({"algo": "beam", "b": "five"}, "beam width must be an int >= 1, got 'five'"),
    ({"algo": "beam", "b": True}, "beam width must be an int >= 1, got True"),
    ({"algo": "mcts", "b": 1.5}, "beam_init_b must be an int, got 1.5"),
    ({"algo": "mcts", "n_mcts": 2.0}, "n_mcts must be an int, got 2.0"),
    ({"algo": "mcts", "n_mcts": False}, "n_mcts must be an int, got False"),
    ({"algo": "mcts", "c": "1"}, "c, the exploration constant, must be a finite number > 0, got '1'"),
    ({"algo": "mcts", "c": math.nan}, "c, the exploration constant, must be a finite number > 0, got nan"),
], ids=["beam-float-b", "beam-str-b", "beam-bool-b", "mcts-float-b", "float-n_mcts",
        "bool-n_mcts", "str-c", "nan-c"])
def test_build_planner_checks_spec_values(small_events, small_config, spec, message):
    # Each setting has one check, made by the code that uses it: the beam
    # width check, or MctsConfig, which names its own field.
    for run in (lambda: build_planner(spec, small_config),
                lambda: evaluate(small_events, spec, n_eval=2, seeds=[0])):
        with pytest.raises(ValueError, match=re.escape(message)):
            run()
    # an int is a real number, and a numpy int is an int
    build_planner({"algo": "mcts", "c": 2, "b": np.int64(2), "n_mcts": 2}, small_config)


def test_unreadable_weights_and_run_results_are_named(tmp_path, capsys, small_events):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "3", "--out", str(data), "--quiet", *SMALL_FLAGS])
    out = tmp_path / "out"
    for path in (tmp_path / "nope.bin", tmp_path):  # missing, and a directory
        with pytest.raises(OSError, match=re.escape(f"cannot read weights from {path}: ")):
            jc.load_weights(path)
        with pytest.raises(OSError, match=re.escape(f"cannot read weights from {path}: ")):
            evaluate(small_events, {"algo": "policy", "prior": "nn", "weights": str(path)}, 2, [0])
        for argv in (["evaluate", "--algo", "policy", "--prior", "nn", "--weights", str(path)],
                     ["evaluate", "--algo", "mcts", "--n-mcts", "1", "--prior", "nn", "--weights", str(path)],
                     ["train", "--mode", "mcts", "--steps", "1", "--init-weights", str(path)]):
            assert cli([*argv, "--in", str(data), "--out", str(out)]) == 2
            assert f"error: cannot read weights from {path}: " in capsys.readouterr().err
        assert cli(["compare", str(path), str(path), "--out", str(out)]) == 2
        assert f"error: cannot read run result from {path}: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.jsonl"]


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
    # Every per_event ll at 1.5e308 under a stored mean_ll of -10.47 used to
    # load; compare ranked the run at -10.47, then overflowed in by_leaf_count
    # and exited 2 naming neither the file nor the field.  A file stores no
    # mean now, and the one derived from the rows overflows.
    good = _greedy_result(tmp_path)
    bad = tmp_path / "bad.json"
    obj = json.loads(good.read_text())
    for e in obj["per_event"]:
        e["ll"], e["n_leaves"] = 1.5e308, 3
    bad.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=re.escape(
            "malformed run result: per_seed[0].mean_ll inf, recomputed from per_event, is not finite")):
        jc.RunResult.from_json(bad.read_text())
    _compare_fails(tmp_path, capsys, good, bad, "per_seed[0].mean_ll")


def test_a_non_finite_leaf_count_mean_names_the_file_and_field(tmp_path, capsys):
    # Finite per-seed means can hide a leaf count whose LLs overflow in sum.
    good = _greedy_result(tmp_path)
    obj = json.loads(good.read_text())
    for k, e in enumerate(obj["per_event"]):
        e["ll"], e["n_leaves"] = (1.5e308, 3) if k % 2 == 0 else (-1.5e308, 4)
    assert math.isfinite(float(np.mean([e["ll"] for e in obj["per_event"]])))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match="per_event ll of the 3-leaf events has the non-finite mean inf"):
        jc.RunResult.from_json(bad.read_text())
    _compare_fails(tmp_path, capsys, good, bad, "3-leaf events")


def _two_seed_rows(tmp_path):
    """A greedy run over 4 events with seeds 0 and 1, as written to
    good.json and loaded as JSON: row 4 * seed + id holds (seed, id)."""
    return json.loads(_greedy_result(tmp_path, seeds=2).read_text())


def _rejected_rows(tmp_path, capsys, obj, message):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    with pytest.raises(ValueError, match=re.escape("malformed run result: " + message)):
        jc.RunResult.from_json(bad.read_text())
    _compare_fails(tmp_path, capsys, good, bad, message)


def test_a_result_row_repeated_for_one_seed_and_event_is_rejected(tmp_path, capsys):
    # compare used to rank a file that held seed 0's first row twice,
    # counting it twice in the means and in by_leaf_count.
    obj = _two_seed_rows(tmp_path)
    obj["per_event"].append(dict(obj["per_event"][0]))
    _rejected_rows(tmp_path, capsys, obj, "per_event[8] repeats the (seed, id) (0, 0) of per_event[0]")


def test_a_result_event_with_two_leaf_counts_is_rejected(tmp_path, capsys):
    obj = _two_seed_rows(tmp_path)
    obj["per_event"][6]["n_leaves"] += 1
    _rejected_rows(tmp_path, capsys, obj, "per_event[6] gives id 2 other n_leaves than per_event[2]")


def test_result_seeds_that_cover_different_events_are_rejected(tmp_path, capsys):
    obj = _two_seed_rows(tmp_path)
    del obj["per_event"][5]  # seed 1, id 1
    _rejected_rows(tmp_path, capsys, obj, "per_event[1] has id 1, which seed 1 has no row of")
    obj["per_event"][4].update(id=1, n_leaves=obj["per_event"][1]["n_leaves"])  # seed 1: ids 1, 2, 3
    _rejected_rows(tmp_path, capsys, obj, "per_event[0] has id 0, which seed 1 has no row of")


def test_cli_compare_rejects_a_schema_1_result(tmp_path, capsys):
    # Schema 1 also stored per_seed, mean_ll, sem_ll and mean_cost; such a
    # file is rejected, not read with its aggregates ignored.
    good = _greedy_result(tmp_path)
    old = json.loads(good.read_text())
    result = jc.RunResult.from_json(good.read_text())
    old.update(schema_version=1, per_seed=result.per_seed, mean_ll=result.mean_ll, sem_ll=result.sem_ll,
               mean_cost=result.mean_cost)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(old))
    _compare_fails(tmp_path, capsys, good, bad, "run result has schema_version 1, this version reads 2")


_lls = st.one_of(st.just(-0.0), st.floats(-1e300, 1e300), st.sampled_from([1e300, -1e300, -0.0, 5e-324]))


@settings(max_examples=200, deadline=None)
@given(seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=4, unique=True),
       leaves=st.dictionaries(st.integers(0, 10**6), st.integers(1, 40), min_size=1, max_size=6),
       data=st.data())
def test_run_result_round_trips_generated_rows(seeds, leaves, data):
    rows = [{"seed": seed, "id": event_id, "n_leaves": n, "ll": data.draw(_lls),
             "cost": data.draw(st.integers(0, 10**9)), "ms": data.draw(st.floats(0.0, 1e4))}
            for seed in seeds for event_id, n in leaves.items()]
    with np.errstate(over="ignore", invalid="ignore"):  # 1e300-scale LLs can overflow the standard error
        result = jc.RunResult("mcts", {"b": 2, "prior": "random"}, rows, data.draw(st.sampled_from([None, "abc"])))
        summary = harness._summary(rows)
        leaf_means = [mean for _, mean, _ in harness._leaf_count_means(rows)]
    assert (result.per_seed, result.mean_ll, result.sem_ll, result.mean_cost) == summary
    text = result.to_json()
    finite = [s[name] for s in summary[0] for name in ("mean_ll", "mean_cost")] + list(summary[1:]) + leaf_means
    if not all(map(math.isfinite, finite)):
        with pytest.raises(ValueError, match="non-finite mean|is not finite"):
            jc.RunResult.from_json(text)
        return
    back = jc.RunResult.from_json(text)
    assert back == result and back.to_json() == text
    assert (back.per_seed, back.mean_ll, back.sem_ll, back.mean_cost) == summary


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


# Every row of the CLI contract table, under the test of its contract's
# name; bound last, so that no test above can share a name with one.
_CONTRACT_TESTS = _contract_tests(cli_contracts.CONTRACTS)
assert not _CONTRACT_TESTS.keys() & globals().keys()
globals().update(_CONTRACT_TESTS)
