import json
import math

import numpy as np
import pytest

import jetclust as jc
from jetclust.cli import cli
from jetclust.harness import (
    compare,
    config_hash,
    dumps,
    evaluate,
    event_to_json,
    write_comparison,
)
from jetclust.rng import make_rng

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
     "not four numbers"),
    (lambda obj: json.dumps({**obj, "schema_version": 99}), "schema_version 99"),
], ids=["invalid-json", "missing-truth_ll", "three-number-leaf", "other-schema-version"])
def test_cli_rejects_bad_event_line(tmp_path, capsys, small_config, corrupt, reason):
    lines = [event_to_json(e) for e in jc.generate_events(small_config, 3)]
    lines[1] = corrupt(json.loads(lines[1]))
    data = tmp_path / "d.jsonl"
    data.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=reason):
        jc.load_events(data)
    assert cli(["cluster", "--algo", "greedy", "--in", str(data), *SMALL_FLAGS]) == 2
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
                "--seed", "7", *SMALL_FLAGS])
    out = capsys.readouterr().out
    assert code == 0
    assert "mean LL" in out


def test_cli_mle_skips_large_events(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "15", "--seed", "3", "--out", str(data), *SMALL_FLAGS])
    code = cli(["mle", "--in", str(data), "--max-n", "4", "--seed", "3", *SMALL_FLAGS])
    out = capsys.readouterr().out
    assert code == 0
    assert "skipping event" in out


def test_cli_evaluate_emits_multi_seed_result(tmp_path):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "8", "--seed", "5", "--out", str(data), *SMALL_FLAGS])
    out = tmp_path / "r.json"
    code = cli(["evaluate", "--algo", "mcts", "--b", "3", "--n-mcts", "10",
                "--seeds", "5", "--in", str(data), "--out", str(out),
                "--seed", "5", *SMALL_FLAGS])
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
                    "--out", str(out), "--seed", "5", *SMALL_FLAGS])
        assert code == 1
        assert "--seeds" in capsys.readouterr().err
    assert not out.exists()


def test_cli_train_and_policy_cluster(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "8", "--seed", "9", "--out", str(data), *SMALL_FLAGS])
    weights = tmp_path / "w.bin"
    code = cli(["train", "--mode", "bc", "--in", str(data), "--steps", "60",
                "--lr", "0.05", "--seed", "9", "--out", str(weights), *SMALL_FLAGS])
    assert code == 0
    assert weights.exists()
    capsys.readouterr()
    code = cli(["cluster", "--algo", "policy", "--prior", "nn", "--weights", str(weights),
                "--in", str(data), "--seed", "9", *SMALL_FLAGS])
    assert code == 0
    assert "mean LL" in capsys.readouterr().out


def test_cli_compare(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    cli(["generate", "--n-events", "6", "--seed", "11", "--out", str(data), *SMALL_FLAGS])
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli(["evaluate", "--algo", "greedy", "--in", str(data), "--out", str(r1),
         "--seed", "11", *SMALL_FLAGS])
    cli(["evaluate", "--algo", "random", "--in", str(data), "--out", str(r2),
         "--seed", "11", *SMALL_FLAGS])
    capsys.readouterr()
    code = cli(["compare", str(r1), str(r2), "--out", str(tmp_path / "cmp")])
    assert code == 0
    assert (tmp_path / "cmp_table.csv").exists()


def test_cli_rejects_density_flags_that_miss_the_dataset(tmp_path, capsys):
    data = tmp_path / "d.jsonl"
    assert cli(["generate", "--n-events", "4", "--seed", "3", "--lam", "3",
                "--out", str(data), "--quiet"]) == 0
    out = tmp_path / "r.json"
    code = cli(["cluster", "--algo", "greedy", "--in", str(data), "--quiet", "--out", str(out)])
    assert code == 1
    assert "density parameters" in capsys.readouterr().err
    assert not out.exists()
    assert cli(["cluster", "--algo", "greedy", "--in", str(data), "--quiet", "--lam", "3",
                "--out", str(out)]) == 0
    assert out.exists()


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
