import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jetclust as jc
from jetclust.cli import _build_parser, cli
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


def test_dumps_rejects_non_finite():
    with pytest.raises(ValueError):
        dumps(float("nan"))
    with pytest.raises(ValueError):
        dumps(float("inf"))


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


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_trivial_aggregation(small_events, small_config, monkeypatch):
    # stub planner returning fixed values checks the arithmetic exactly
    fixed = {0: -1.0, 1: -2.0, 2: -3.0}

    def fake_build_planner(spec, config):
        table = {tuple(e.leaves): fixed[e.event_id] for e in small_events[:3]}
        return lambda leaves, rng: (None, table[tuple(leaves)])

    import jetclust.harness as hmod
    monkeypatch.setattr(hmod, "build_planner", fake_build_planner)
    result = evaluate(small_events[:3], {"algo": "greedy"}, small_config,
                      n_eval=3, seeds=[0])
    assert result.mean_ll == -2.0
    assert result.sem_ll == 0.0


def test_evaluate_greedy_zero_variance_across_seeds(small_events, small_config):
    result = evaluate(small_events, {"algo": "greedy"}, small_config,
                      n_eval=10, seeds=[0, 1, 2])
    assert result.sem_ll == 0.0
    assert len(result.per_seed) == 3
    # aggregate recomputes from the parts
    seed_means = [s["mean_ll"] for s in result.per_seed]
    assert abs(result.mean_ll - np.mean(seed_means)) <= 1e-12
    for entry in result.per_seed:
        rows = [e["ll"] for e in result.per_event if e["seed"] == entry["seed"]]
        assert abs(np.mean(rows) - entry["mean_ll"]) <= 1e-12


def test_evaluate_beam_costs_exceed_greedy(small_events, small_config):
    greedy = evaluate(small_events, {"algo": "greedy"}, small_config, n_eval=10, seeds=[0])
    beam = evaluate(small_events, {"algo": "beam", "b": 3}, small_config, n_eval=10, seeds=[0])
    for g, b in zip(greedy.per_event, beam.per_event):
        assert b["cost"] > g["cost"]


def test_evaluate_greedy_cost_closed_form(small_events, small_config):
    result = evaluate(small_events, {"algo": "greedy"}, small_config, n_eval=10, seeds=[0])
    for entry in result.per_event:
        n = entry["n_leaves"]
        assert entry["cost"] == sum(k * (k - 1) // 2 for k in range(2, n + 1))


def test_evaluate_rejects_unknown_planner(small_events, small_config):
    with pytest.raises(ValueError):
        evaluate(small_events, {"algo": "quantum"}, small_config, n_eval=2, seeds=[0])


def test_evaluate_requires_enough_events(small_events, small_config):
    with pytest.raises(ValueError):
        evaluate(small_events[:3], {"algo": "greedy"}, small_config, n_eval=5, seeds=[0])


def test_evaluate_rejects_empty_seed_list(small_events, small_config, monkeypatch):
    import jetclust.harness as hmod

    def no_planner(spec, config):
        raise AssertionError("a planner was built for an empty seed list")

    monkeypatch.setattr(hmod, "build_planner", no_planner)
    with pytest.raises(ValueError, match="seed"):
        evaluate(small_events, {"algo": "greedy"}, small_config, n_eval=2, seeds=[])


def test_evaluate_rejects_fewer_than_one_event(small_events, small_config, monkeypatch):
    import jetclust.harness as hmod

    def no_planner(spec, config):
        raise AssertionError("a planner was built for n_eval < 1")

    monkeypatch.setattr(hmod, "build_planner", no_planner)
    for n_eval in (0, -1):
        with pytest.raises(ValueError, match="n_eval"):
            evaluate(small_events, {"algo": "greedy"}, small_config, n_eval=n_eval, seeds=[0])


def test_run_result_round_trip(small_events, small_config):
    result = evaluate(small_events, {"algo": "greedy"}, small_config, n_eval=5, seeds=[0])
    text = result.to_json()
    back = jc.RunResult.from_json(text)
    assert back.to_json() == text


def test_run_result_rejects_other_schema_version(small_events, small_config):
    result = evaluate(small_events, {"algo": "greedy"}, small_config, n_eval=2, seeds=[0])
    obj = json.loads(result.to_json())
    obj["schema_version"] = 99
    with pytest.raises(ValueError, match="schema_version 99"):
        jc.RunResult.from_json(json.dumps(obj))


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_identical_runs_identical_rows(small_events, small_config):
    r1 = evaluate(small_events, {"algo": "greedy"}, small_config, n_eval=8, seeds=[0])
    r2 = evaluate(small_events, {"algo": "greedy"}, small_config, n_eval=8, seeds=[0])
    out = compare([r1, r2])
    assert out["table"][0] == out["table"][1]


def test_compare_orders_by_mean_ll(small_events, small_config):
    greedy = evaluate(small_events, {"algo": "greedy"}, small_config, n_eval=12, seeds=[0])
    random = evaluate(small_events, {"algo": "random"}, small_config, n_eval=12, seeds=[0])
    out = compare([random, greedy])
    assert out["table"][0]["planner"] == "greedy"
    assert out["table"][0]["mean_ll"] >= out["table"][1]["mean_ll"]


def test_compare_bins_partition_events(small_events, small_config):
    result = evaluate(small_events, {"algo": "greedy"}, small_config, n_eval=15, seeds=[0])
    other = evaluate(small_events, {"algo": "random"}, small_config, n_eval=15, seeds=[0])
    out = compare([result, other])
    greedy_rows = [row for row in out["by_leaf_count"] if row["planner"] == "greedy"]
    assert sum(row["n_events"] for row in greedy_rows) == 15


def test_compare_rejects_mismatched_event_sets(small_events, small_config):
    r1 = evaluate(small_events, {"algo": "greedy"}, small_config, n_eval=8, seeds=[0])
    r2 = evaluate(small_events, {"algo": "greedy"}, small_config, n_eval=9, seeds=[0])
    with pytest.raises(ValueError):
        compare([r1, r2])


def test_compare_rejects_different_datasets(small_events, small_config):
    other_config = jc.ShowerConfig(
        lam=small_config.lam, t_cut=small_config.t_cut,
        root=small_config.root, rng_seed=small_config.rng_seed + 5)
    other_events = jc.generate_events(other_config, 8)
    r1 = evaluate(small_events, {"algo": "greedy"}, small_config, n_eval=8, seeds=[0])
    r2 = evaluate(other_events, {"algo": "greedy"}, other_config, n_eval=8, seeds=[0])
    with pytest.raises(ValueError, match="different datasets"):
        compare([r1, r2])


def test_write_comparison_emits_csv_and_json(tmp_path, small_events, small_config):
    r1 = evaluate(small_events, {"algo": "greedy"}, small_config, n_eval=5, seeds=[0])
    r2 = evaluate(small_events, {"algo": "beam", "b": 2}, small_config, n_eval=5, seeds=[0])
    written = write_comparison(compare([r1, r2]), tmp_path / "cmp")
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
    code = cli(["mle", "--in", str(data), "--max-n", "4", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "skipping event" in out


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
        jc.save_weights(weights, w, include_ps=header["include_ps"], config_hash=header["config_hash"])
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
    want = evaluate(jc.generate_events(config, 4), {"algo": "greedy"}, config, n_eval=4, seeds=[0])
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


def test_build_planner_rejects_unknown_spec_keys(small_events, small_config):
    spec = {"algo": "mcts", "n_mcts": 2, "use_beam_init": False, "n_mct": 0}
    for run in (lambda: build_planner(spec, small_config),
                lambda: evaluate(small_events, spec, small_config, n_eval=2, seeds=[0])):
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
                lambda: evaluate(small_events, spec, small_config, n_eval=2, seeds=[0])):
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
