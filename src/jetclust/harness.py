"""Experiment orchestration: dataset generation, multi-seed planner
evaluation with cost accounting, run comparison, and the JSONL/JSON/CSV
serialization behind all of it.

Events and results are written as JSON with every float rendered at 17
significant digits, which round-trips float64 exactly, so files are
byte-stable under regeneration with the same seed.
"""

import csv
import hashlib
import io
import json
import math
import numbers
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .costs import PS_EVALUATIONS
from .planners import MctsConfig, cluster_beam, cluster_greedy, cluster_mcts, cluster_policy, cluster_random, fixed_policy
from .rng import make_rng
from .shower import FourMomentum, ShowerConfig, Tree, TreeNode, invariant_mass_sq, sample_shower, tree_log_likelihood

SCHEMA_VERSION = 1  # run-result files
EVENT_SCHEMA_VERSION = 2  # dataset lines; version 1 stored a config hash, not the config

# Default configuration: a boosted root with mass-squared 400 showered
# down to t_cut = 1, giving events around 15 particles; the whole
# pipeline runs at desk scale in minutes.
DESK_CONFIG = ShowerConfig(lam=1.5, t_cut=1.0, root=FourMomentum(25.0, 0.0, 0.0, 15.0), rng_seed=0)


# ---------------------------------------------------------------------------
# JSON with fixed float formatting
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        return "0"  # normalizes -0.0 so round-trips stay byte-identical
    return format(x, ".17g")


def dumps(obj) -> str:
    """Compact JSON with floats at 17 significant digits."""
    out = io.StringIO()
    _write_json(obj, out)
    return out.getvalue()


def _write_json(obj, out) -> None:
    if isinstance(obj, dict):
        out.write("{")
        first = True
        for k, v in obj.items():
            if not first:
                out.write(",")
            first = False
            out.write(json.dumps(str(k)))
            out.write(":")
            _write_json(v, out)
        out.write("}")
    elif isinstance(obj, (list, tuple)):
        out.write("[")
        for i, v in enumerate(obj):
            if i:
                out.write(",")
            _write_json(v, out)
        out.write("]")
    elif isinstance(obj, bool) or obj is None:
        out.write(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        out.write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.write(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.write(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _config_to_obj(config: ShowerConfig) -> dict:
    return {"lam": config.lam, "t_cut": config.t_cut, "root": list(config.root.as_tuple()), "rng_seed": config.rng_seed}


def config_hash(config: ShowerConfig) -> str:
    """Short provenance hash over every generation-relevant field."""
    return hashlib.sha256(dumps(_config_to_obj(config)).encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Events
# ---------------------------------------------------------------------------

@dataclass
class EventRecord:
    event_id: int
    config: ShowerConfig  # the model that generated the event, and so the density that scores it
    leaves: tuple[FourMomentum, ...]
    truth: Tree
    truth_ll: float

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)


def _tree_to_obj(tree: Tree) -> dict:
    return {
        "nodes": [
            {
                "p": list(node.momentum.as_tuple()),
                "parent": node.parent,
                "children": list(node.children) if node.children is not None else None,
            }
            for node in tree.nodes
        ],
        "root": tree.root_index,
    }


def _check_schema(obj, what: str, expected: int = SCHEMA_VERSION) -> None:
    version = obj.get("schema_version") if isinstance(obj, dict) else None
    if version != expected:
        raise ValueError(f"{what} has schema_version {version!r}, this version reads {expected}")


def _number(value, what: str) -> float:
    # json.loads gives int or float for a number (nan or inf for NaN or Infinity); bool and str are not numbers
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{what} {value!r} is not a finite number")
    return float(value)


def _momentum(values) -> FourMomentum:
    if len(values) == 4:
        E, px, py, pz = values
        if ({type(E), type(px), type(py), type(pz)} <= {int, float}
                and math.isfinite(E) and math.isfinite(px) and math.isfinite(py) and math.isfinite(pz)):
            return FourMomentum(float(E), float(px), float(py), float(pz))
    raise ValueError(f"momentum {values!r} is not four finite numbers")


def _config_from_obj(obj) -> ShowerConfig:
    if not (isinstance(obj, dict) and obj.keys() == {"lam", "t_cut", "root", "rng_seed"}
            and type(obj["rng_seed"]) is int):
        raise ValueError(f"config {obj!r} is not lam, t_cut, root and an int rng_seed")
    config = ShowerConfig(_number(obj["lam"], "config lam"), _number(obj["t_cut"], "config t_cut"),
                          _momentum(obj["root"]), obj["rng_seed"])
    config.validate()
    return config


def _tree_from_obj(obj: dict) -> Tree:
    nodes = []
    for rec in obj["nodes"]:
        momentum = _momentum(rec["p"])
        nodes.append(TreeNode(
            momentum=momentum,
            t=invariant_mass_sq(momentum),
            parent=rec["parent"],
            children=tuple(rec["children"]) if rec["children"] is not None else None,
        ))
    leaf_indices = [i for i, node in enumerate(nodes) if node.children is None]
    return Tree(nodes=nodes, root_index=obj["root"], leaf_indices=leaf_indices)


def event_to_json(event: EventRecord) -> str:
    return dumps({
        "schema_version": EVENT_SCHEMA_VERSION,
        "id": event.event_id,
        "config": _config_to_obj(event.config),
        "leaves": [list(p.as_tuple()) for p in event.leaves],
        "truth": _tree_to_obj(event.truth),
        "truth_ll": event.truth_ll,
    })


def event_from_json(line: str, config: ShowerConfig | None = None) -> EventRecord:
    """Decode one dataset line; ValueError if it is not an event of this
    schema version, or if it stores a config other than `config`, which
    the record then shares."""
    obj = json.loads(line)
    _check_schema(obj, "event", EVENT_SCHEMA_VERSION)
    try:
        stored = _config_from_obj(obj["config"])
        if config is not None and stored != config:
            raise ValueError("config differs from the first event's; a dataset holds one shower config")
        return EventRecord(
            event_id=obj["id"],
            config=stored if config is None else config,
            leaves=tuple(_momentum(p) for p in obj["leaves"]),
            truth=_tree_from_obj(obj["truth"]),
            truth_ll=_number(obj["truth_ll"], "truth_ll"),
        )
    except (KeyError, TypeError, OverflowError) as exc:  # missing field, wrong kind, int beyond float range
        raise ValueError(f"malformed event: {exc!r}") from exc


def generate_events(config: ShowerConfig, n_events: int) -> list[EventRecord]:
    """Simulate n_events decay trees; the observed leaves of each tree are
    one clustering problem.  Event k uses the stream (rng_seed, k), so the
    dataset is reproducible event by event."""
    config.validate()
    events = []
    for k in range(n_events):
        tree = sample_shower(config, make_rng(config.rng_seed, k))
        events.append(EventRecord(
            event_id=k,
            config=config,
            leaves=tuple(tree.leaf_momenta()),
            truth=tree,
            truth_ll=tree_log_likelihood(tree, config),
        ))
    return events


def write_events(path: str | Path, events: Sequence[EventRecord]) -> None:
    try:
        with open(path, "w") as f:
            for event in events:
                f.write(event_to_json(event) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write dataset to {path}: {exc}") from exc


def load_events(path: str | Path) -> list[EventRecord]:
    """Read a dataset, whose events share one ShowerConfig; a line that is not
    a valid event or stores another config raises ValueError naming path:line."""
    events = []
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                if not line.strip():
                    continue
                try:
                    events.append(event_from_json(line, events[0].config if events else None))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise OSError(f"cannot read dataset from {path}: {exc}") from exc
    return events


def generate(config: ShowerConfig, n_events: int, path: str | Path) -> list[EventRecord]:
    events = generate_events(config, n_events)
    write_events(path, events)
    return events


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    planner: str
    params: dict
    per_event: list[dict]  # {seed, id, n_leaves, ll, cost, ms}
    per_seed: list[dict]   # {seed, mean_ll, mean_cost}
    mean_ll: float
    sem_ll: float
    mean_cost: float
    dataset_hash: str | None = None

    def to_json(self) -> str:
        return dumps({
            "schema_version": SCHEMA_VERSION,
            "planner": self.planner,
            "params": self.params,
            "dataset_hash": self.dataset_hash,
            "per_event": self.per_event,
            "per_seed": self.per_seed,
            "mean_ll": self.mean_ll,
            "sem_ll": self.sem_ll,
            "mean_cost": self.mean_cost,
        })

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        obj = json.loads(text)
        _check_schema(obj, "run result")
        try:
            result = cls(
                planner=obj["planner"],
                params=obj["params"],
                per_event=obj["per_event"],
                per_seed=obj["per_seed"],
                mean_ll=float(obj["mean_ll"]),
                sem_ll=float(obj["sem_ll"]),
                mean_cost=float(obj["mean_cost"]),
                dataset_hash=obj.get("dataset_hash"),
            )
            if not result.per_event:
                raise ValueError("malformed run result: per_event is empty")
            for k, entry in enumerate(result.per_event):
                missing = [name for name in ("id", "n_leaves", "ll") if name not in entry]
                if missing:
                    raise ValueError(
                        f"malformed run result: per_event[{k}] lacks {', '.join(missing)}")
        except (KeyError, TypeError) as exc:  # a missing field or a value of the wrong kind
            raise ValueError(f"malformed run result: {exc!r}") from exc
        return result


# Every key a planner spec may hold; build_planner rejects any other.
PLANNER_SPEC_KEYS = ("algo", "b", "n_mcts", "c", "prior", "weights", "final_rule", "rollout_rule")


def build_planner(spec: dict, config: ShowerConfig):
    """Planner callable (leaves, rng) -> (tree, ll) from a spec dict."""
    unknown = sorted(str(key) for key in spec if key not in PLANNER_SPEC_KEYS)
    if unknown:
        raise ValueError(f"unknown planner spec keys: {', '.join(unknown)}")
    algo = spec.get("algo")
    if algo == "random":
        return lambda leaves, rng: cluster_random(leaves, config, rng)
    if algo == "greedy":
        return lambda leaves, rng: cluster_greedy(leaves, config)
    if algo == "beam":
        b = _spec_value(spec, "b", int, 5)
        return lambda leaves, rng: cluster_beam(leaves, b, config)
    if algo == "policy":
        policy = _policy_from_spec(spec, config)
        return lambda leaves, rng: cluster_policy(leaves, policy, config)
    if algo == "mcts":
        cfg = mcts_config(spec)
        policy = _policy_from_spec(spec, config)
        return lambda leaves, rng: cluster_mcts(leaves, policy, cfg, config, rng)[:2]
    raise ValueError(f"unknown planner algo: {algo!r}")


def mcts_config(spec: dict) -> MctsConfig:
    """The validated MCTS settings of a planner spec; a key the spec
    leaves out keeps the MctsConfig default."""
    fields = {"c": ("c", float), "n_mcts": ("n_mcts", int), "b": ("beam_init_b", int),
              "final_rule": ("final_rule", str), "rollout_rule": ("rollout_rule", str)}
    cfg = MctsConfig(**{name: _spec_value(spec, key, kind) for key, (name, kind) in fields.items() if key in spec})
    cfg.validate()
    return cfg


def _spec_value(spec: dict, key: str, kind: type, default=None):
    """spec[key], or the default, as `kind`; ValueError naming the key if it is not one."""
    value = spec.get(key, default)
    accepted, name = {int: (numbers.Integral, "an int"), float: (numbers.Real, "a finite real number"),
                      str: (str, "a string")}[kind]
    if isinstance(value, bool) or not isinstance(value, accepted) or (kind is float and not math.isfinite(value)):
        raise ValueError(f"planner spec {key}={value!r} is not {name}")
    return kind(value)


def _policy_from_spec(spec: dict, config: ShowerConfig):
    prior = spec.get("prior", "random")
    if prior in ("random", "proportional-to-ps"):
        return fixed_policy(prior, config)
    if prior == "nn":
        from .policy import NeuralPolicy, load_weights

        path = spec.get("weights")
        if not path:
            raise ValueError("prior 'nn' needs a weights file")
        weights, header = load_weights(path)
        return NeuralPolicy(weights, config, include_ps=bool(header.get("include_ps", True)))
    raise ValueError(f"unknown prior: {prior!r}")


def evaluate(
    events: Sequence[EventRecord],
    spec: dict,
    config: ShowerConfig,
    n_eval: int,
    seeds: Sequence[int],
) -> RunResult:
    """Run the planner over the first n_eval events once per seed.  The
    mean is the mean of per-seed means and the standard error is taken
    across seeds, matching how trained models with different seeds are
    compared."""
    if not seeds:
        raise ValueError("need at least one seed")
    if n_eval < 1:
        raise ValueError(f"need at least one event to evaluate, got n_eval={n_eval}")
    if len(events) < n_eval:
        raise ValueError(f"dataset has {len(events)} events, need {n_eval}")
    subset = list(events[:n_eval])
    planner = build_planner(spec, config)
    per_event = []
    per_seed = []
    for seed in seeds:
        lls = []
        costs = []
        for event in subset:
            rng = make_rng(seed, event.event_id)
            start_cost = PS_EVALUATIONS.count
            t0 = time.perf_counter()
            _, ll = planner(event.leaves, rng)
            ms = (time.perf_counter() - t0) * 1e3
            cost = PS_EVALUATIONS.count - start_cost
            per_event.append({
                "seed": int(seed),
                "id": event.event_id,
                "n_leaves": event.n_leaves,
                "ll": ll,
                "cost": cost,
                "ms": ms,
            })
            lls.append(ll)
            costs.append(cost)
        per_seed.append({
            "seed": int(seed),
            "mean_ll": float(np.mean(lls)),
            "mean_cost": float(np.mean(costs)),
        })
    seed_means = [s["mean_ll"] for s in per_seed]
    sem = float(np.std(seed_means, ddof=1) / np.sqrt(len(seed_means))) if len(seed_means) > 1 else 0.0
    return RunResult(
        planner=spec.get("algo", "?"),
        params={k: v for k, v in spec.items() if k != "algo"},
        per_event=per_event,
        per_seed=per_seed,
        mean_ll=float(np.mean(seed_means)),
        sem_ll=sem,
        mean_cost=float(np.mean([s["mean_cost"] for s in per_seed])),
        dataset_hash=config_hash(subset[0].config),
    )


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _run_label(result: RunResult) -> str:
    if not result.params:
        return result.planner
    inner = ",".join(f"{k}={v}" for k, v in sorted(result.params.items()) if v is not None)
    return f"{result.planner}({inner})" if inner else result.planner


def compare(results: Sequence[RunResult]) -> dict:
    """Ranked table, cost-vs-quality curve points, and per-leaf-count
    means for runs over the same events."""
    if len(results) < 2:
        raise ValueError("need at least 2 runs to compare")
    id_sets = [sorted({e["id"] for e in r.per_event}) for r in results]
    if any(ids != id_sets[0] for ids in id_sets[1:]):
        raise ValueError("runs cover different event sets")
    hashes = {r.dataset_hash for r in results if r.dataset_hash is not None}
    if len(hashes) > 1:
        raise ValueError(f"runs come from different datasets: {sorted(hashes)}")

    table = sorted(
        (
            {
                "planner": _run_label(r),
                "mean_ll": r.mean_ll,
                "sem_ll": r.sem_ll,
                "mean_cost": r.mean_cost,
            }
            for r in results
        ),
        key=lambda row: -row["mean_ll"],
    )
    curve = [
        {"planner": _run_label(r), "mean_cost": r.mean_cost, "mean_ll": r.mean_ll}
        for r in results
    ]

    by_leaves = []
    for r in results:
        bins: dict[int, list[float]] = {}
        seen: dict[int, set] = {}
        for e in r.per_event:
            bins.setdefault(e["n_leaves"], []).append(e["ll"])
            seen.setdefault(e["n_leaves"], set()).add(e["id"])
        for n in sorted(bins):
            by_leaves.append({
                "planner": _run_label(r),
                "n_leaves": n,
                "mean_ll": float(np.mean(bins[n])),
                "n_events": len(seen[n]),
            })
    return {"table": table, "curve": curve, "by_leaf_count": by_leaves}


def write_comparison(comparison: dict, out_prefix: str | Path) -> list[Path]:
    """CSV per section plus one JSON with everything."""
    out_prefix = Path(out_prefix)
    written = []
    for name, rows in comparison.items():
        path = out_prefix.with_name(out_prefix.name + f"_{name}.csv")
        with open(path, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow(row)
        written.append(path)
    json_path = out_prefix.with_name(out_prefix.name + ".json")
    with open(json_path, "w") as f:
        f.write(dumps(comparison) + "\n")
    written.append(json_path)
    return written
