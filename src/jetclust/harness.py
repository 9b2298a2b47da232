"""Experiment orchestration: dataset generation, multi-seed planner
evaluation with cost accounting, run comparison, and the JSONL/JSON/CSV
serialization behind all of it.

Events and results are written as JSON with every float rendered at 17
significant digits, which round-trips float64 exactly, so files are
byte-stable under regeneration with the same seed.
"""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import numbers
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .costs import PS_EVALUATIONS
from .planners import MctsConfig, cluster_beam, cluster_greedy, cluster_mcts, cluster_policy, cluster_random, fixed_policy
from .policy import NeuralPolicy, PolicyWeights, load_weights, weights_bytes
from .rng import make_rng
from .shower import FourMomentum, ShowerConfig, Tree, TreeNode, sample_shower, tree_log_likelihood

SCHEMA_VERSION = 1  # run-result files
EVENT_SCHEMA_VERSION = 2  # dataset lines; version 1 stored a config hash, not the config
# Largest |truth_ll - tree_log_likelihood(truth)| a loaded event may show.
TRUTH_LL_TOLERANCE = 1e-9
# Largest difference a loaded run result's stored means may show from the
# ones recomputed from its per_event rows.
RESULT_MEAN_TOLERANCE = 1e-9

# Default configuration: a boosted root with mass-squared 400 showered
# down to t_cut = 1, giving events around 15 particles; the whole
# pipeline runs at desk scale in minutes.
DESK_CONFIG = ShowerConfig(lam=1.5, t_cut=1.0, root=FourMomentum(25.0, 0.0, 0.0, 15.0), rng_seed=0)


# ---------------------------------------------------------------------------
# JSON with fixed float formatting
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite float {x!r}")
    if x == 0.0:
        return "0"  # normalizes -0.0 so round-trips stay byte-identical
    return format(x, ".17g")


# What json.dumps does to a str: quoted, with non-ASCII text \u-escaped.
_encode_str = json.encoder.encode_basestring_ascii
_FLOAT = frozenset((float,))


def dumps(obj) -> str:
    """Compact JSON with floats at 17 significant digits."""
    parts: list[str] = []
    _write_json(obj, parts.append)
    return "".join(parts)


def _write_json(obj, write) -> None:
    # The exact types the files hold take the first branches; bools, numpy
    # scalars and subclasses (a NamedTuple is a tuple) reach the isinstance
    # chain at the end, which decides them as it always has.
    kind = type(obj)
    if kind is float:
        write(_format_float(obj))
    elif kind is list or kind is tuple:
        if _FLOAT.issuperset(map(type, obj)):  # plain floats only, as in every momentum
            write("[" + ",".join(map(_format_float, obj)) + "]")
        else:
            _write_array(obj, write)
    elif kind is dict:
        _write_object(obj, write)
    elif kind is int:
        write(str(obj))
    elif obj is None:
        write("null")
    elif isinstance(obj, dict):
        _write_object(obj, write)
    elif isinstance(obj, (list, tuple)):
        _write_array(obj, write)
    elif isinstance(obj, bool):
        write("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        write(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        write(_format_float(float(obj)))
    elif isinstance(obj, str):
        write(_encode_str(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def _write_object(obj: dict, write) -> None:
    write("{")
    sep = ""
    for k, v in obj.items():
        write(sep + _encode_str(k if type(k) is str else str(k)) + ":")
        sep = ","
        _write_json(v, write)
    write("}")


def _write_array(obj, write) -> None:
    write("[")
    for i, v in enumerate(obj):
        if i:
            write(",")
        _write_json(v, write)
    write("]")


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
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an int beyond the float range
        number = math.nan
    if not math.isfinite(number):
        raise ValueError(f"{what} {value!r} is not a finite number")
    return number


def _kind(value, kinds: tuple[type, ...], what: str):
    """value, if its exact type is one of kinds (so a bool is not an int);
    else ValueError naming what."""
    if type(value) not in kinds:
        names = " or ".join("null" if kind is type(None) else kind.__name__ for kind in kinds)
        raise ValueError(f"{what} is {type(value).__name__}, not {names}")
    return value


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
    return ShowerConfig(_number(obj["lam"], "config lam"), _number(obj["t_cut"], "config t_cut"),
                        _momentum(obj["root"]), obj["rng_seed"])


def _tree_from_obj(obj: dict, leaves: list) -> Tree:
    """Decode a truth tree; ValueError unless it is one binary tree whose
    parent and child links agree and whose leaves, in the order the
    sampler lists them (pre-order, first child first), are the line's
    `leaves`, so that leaf k of the tree is particle k of the event."""
    nodes = []
    for k, rec in enumerate(obj["nodes"]):
        momentum = _momentum(rec["p"])
        children = rec["children"]
        if children is not None:
            if type(children) is not list or len(children) != 2:
                raise ValueError(f"truth tree node {k} has children {children!r}, not two")
            children = tuple(children)
        nodes.append(TreeNode(momentum=momentum, parent=rec["parent"], children=children))
    size = len(nodes)
    root = obj["root"]
    if type(root) is not int or not 0 <= root < size:
        raise ValueError(f"truth tree root {root!r} is not a node index below {size}")
    if nodes[root].parent is not None:
        raise ValueError(f"truth tree root {root} has parent {nodes[root].parent!r}")
    # Every other node must be reached once, from the parent it names.
    reached = set()
    leaf_indices = []
    stack = [root]
    while stack:
        k = stack.pop()
        if k in reached:
            raise ValueError(f"truth tree node {k} is reached twice from the root")
        reached.add(k)
        if nodes[k].children is None:
            leaf_indices.append(k)
            continue
        for c in reversed(nodes[k].children):
            if type(c) is not int or not 0 <= c < size:
                raise ValueError(f"truth tree node {k}'s child {c!r} is not a node index below {size}")
            parent = nodes[c].parent
            if type(parent) is not int or parent != k:
                raise ValueError(f"truth tree node {c} is a child of node {k} but names parent {parent!r}")
            stack.append(c)
    if len(reached) != size:
        raise ValueError(f"truth tree nodes {sorted(set(range(size)) - reached)} are not reached from the root")
    if [obj["nodes"][k]["p"] for k in leaf_indices] != leaves:
        raise ValueError("truth tree leaves, in pre-order, differ from the event's leaves")
    return Tree(nodes=nodes, root_index=root, leaf_indices=leaf_indices)


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
    schema version, if its truth tree's root momentum is not its config's
    `root`, if its `truth_ll` is more than TRUTH_LL_TOLERANCE from the
    log-likelihood of its truth tree, or if it stores a config other than
    `config`, which the record then shares.

    Scoring the truth tree makes n - 1 kernel queries for an event of n
    leaves.  They add to the global PS_EVALUATIONS tally, but they happen
    outside every planner call, so no per-event cost delta counts them."""
    obj = json.loads(line)
    _check_schema(obj, "event", EVENT_SCHEMA_VERSION)
    try:
        stored = _config_from_obj(obj["config"])
        if config is not None and stored != config:
            raise ValueError("config differs from the first event's; a dataset holds one shower config")
        if type(obj["id"]) is not int:
            raise ValueError(f"event id {obj['id']!r} is not an int")
        event = EventRecord(
            event_id=obj["id"],
            config=stored if config is None else config,
            leaves=tuple(_momentum(p) for p in obj["leaves"]),
            truth=_tree_from_obj(obj["truth"], obj["leaves"]),
            truth_ll=_number(obj["truth_ll"], "truth_ll"),
        )
        root = event.truth.nodes[event.truth.root_index].momentum
        if root != event.config.root:
            raise ValueError(f"truth root momentum {root.as_tuple()} is not the config root "
                             f"{event.config.root.as_tuple()}, where the sampler starts every tree")
        ll = tree_log_likelihood(event.truth, event.config)
        if not abs(ll - event.truth_ll) <= TRUTH_LL_TOLERANCE:
            raise ValueError(f"truth_ll {event.truth_ll!r} differs from the truth tree's log-likelihood {ll!r}")
        return event
    except (KeyError, TypeError, OverflowError) as exc:  # missing field, wrong kind, int beyond float range
        raise ValueError(f"malformed event: {exc!r}") from exc


def generate_events(config: ShowerConfig, n_events: int) -> list[EventRecord]:
    """Simulate n_events decay trees; the observed leaves of each tree are
    one clustering problem.  Event k uses the stream (rng_seed, k), so the
    dataset is reproducible event by event."""
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


# Numbers the temporary files of this process, so that no two writes share one.
_TMP_SERIAL = itertools.count()


def write_all(outputs: dict[str | Path, Iterable[bytes]], what: str) -> None:
    """Write the bytes of each output to its path, all or none.  They go
    to a temporary file beside the path (beside its target, if the path
    is a symlink), whose name does not grow with the path's, and the
    temporary files replace their paths only once every one is written;
    a failed write removes them, so each path keeps its old content (or
    stays absent) and none holds part of the output.  OSError naming
    what and the path if one exists but is not a regular file, or cannot
    be written.  This is the package's only file writer."""
    targets = {path: Path(os.path.realpath(path)) for path in outputs}
    tmps = []
    try:
        for path, target in targets.items():
            if target.exists() and not target.is_file():
                raise OSError("not a regular file")
        for path, parts in outputs.items():
            tmps.append(targets[path].with_name(f".jetclust-{os.getpid()}-{next(_TMP_SERIAL)}.tmp"))
            with open(tmps[-1], "wb") as f:
                f.writelines(parts)
        for path, tmp in zip(outputs, tmps):
            os.replace(tmp, targets[path])
    except OSError as exc:
        raise OSError(f"cannot write {what} to {path}: {exc}") from exc
    finally:
        for tmp in tmps:
            with contextlib.suppress(OSError):  # a failed clean-up must not mask the write's error
                tmp.unlink(missing_ok=True)  # gone already once it has replaced its path


def write_events(path: str | Path, events: Sequence[EventRecord]) -> None:
    """Write a dataset, one event per line, all or none (`write_all`), so
    `path` never holds part of a dataset.  OSError if `path` exists but is
    not a regular file."""
    write_all({path: ((event_to_json(event) + "\n").encode() for event in events)}, "dataset")


def save_weights(path: str | Path, w: PolicyWeights, config_hash: str | None = None) -> None:
    """Write `w` as a weights file (`policy.weights_bytes`), all or none
    (`write_all`), so a failed write keeps the file that was there."""
    write_all({path: [weights_bytes(w, config_hash)]}, "weights")


def load_events(path: str | Path) -> list[EventRecord]:
    """Read a dataset, whose events share one ShowerConfig and have unique
    ids; a line that is not a valid event, stores another config or
    repeats an id raises ValueError naming path:line."""
    events = []
    line_of_id: dict[int, int] = {}
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                if not line.strip():
                    continue
                try:
                    event = event_from_json(line, events[0].config if events else None)
                    first = line_of_id.setdefault(event.event_id, lineno)
                    if first != lineno:
                        raise ValueError(f"event id {event.event_id} repeats the id of line {first}")
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
                events.append(event)
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
    """A run's rows and what scored them.  per_seed ({seed, mean_ll,
    mean_cost}), mean_ll, sem_ll and mean_cost are derived from per_event
    by _summary when the result is built."""
    planner: str
    params: dict
    per_event: list[dict]  # {seed, id, n_leaves, ll, cost, ms}
    dataset_hash: str | None = None

    def __post_init__(self):
        self.per_seed, self.mean_ll, self.sem_ll, self.mean_cost = _summary(self.per_event)

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
        """Decode a run-result file; ValueError naming the field unless
        planner is a str, dataset_hash a str or null, params a dict,
        per_event a non-empty and per_seed a list of dicts, every per_event
        seed, id and n_leaves an int, every per_event ll and cost, mean_ll,
        sem_ll and mean_cost a finite number, the stored per_seed, mean_ll,
        sem_ll and mean_cost within RESULT_MEAN_TOLERANCE of the ones
        derived from per_event, and the mean LL of each leaf count finite.
        The result keeps the derived aggregates, not the stored ones."""
        obj = json.loads(text)
        _check_schema(obj, "run result")
        what = "malformed run result:"
        try:
            planner = _kind(obj["planner"], (str,), f"{what} planner")
            params = _kind(obj["params"], (dict,), f"{what} params")
            per_event = _kind(obj["per_event"], (list,), f"{what} per_event")
            stored_per_seed = _kind(obj["per_seed"], (list,), f"{what} per_seed")
            stored = {name: _number(obj[name], f"{what} {name}") for name in ("mean_ll", "sem_ll", "mean_cost")}
            dataset_hash = _kind(obj.get("dataset_hash"), (str, type(None)), f"{what} dataset_hash")
        except KeyError as exc:
            raise ValueError(f"{what} missing field {exc}") from exc
        if not per_event:
            raise ValueError(f"{what} per_event is empty")
        for k, entry in enumerate(stored_per_seed):
            _kind(entry, (dict,), f"{what} per_seed[{k}]")
            missing = [name for name in ("seed", "mean_ll", "mean_cost") if name not in entry]
            if missing:
                raise ValueError(f"{what} per_seed[{k}] lacks {', '.join(missing)}")
            _kind(entry["seed"], (int,), f"{what} per_seed[{k}].seed")
        for k, entry in enumerate(per_event):
            _kind(entry, (dict,), f"{what} per_event[{k}]")
            missing = [name for name in ("seed", "id", "n_leaves", "ll", "cost") if name not in entry]
            if missing:
                raise ValueError(f"{what} per_event[{k}] lacks {', '.join(missing)}")
            for name in ("seed", "id", "n_leaves"):
                _kind(entry[name], (int,), f"{what} per_event[{k}].{name}")
            _number(entry["ll"], f"{what} per_event[{k}].ll")
            _number(entry["cost"], f"{what} per_event[{k}].cost")
        with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows is reported below
            result = cls(planner, params, per_event, dataset_hash)
            by_leaves = _leaf_count_means(per_event)
        seeds = [entry["seed"] for entry in stored_per_seed]
        if seeds != [entry["seed"] for entry in result.per_seed]:
            raise ValueError(f"{what} per_seed holds the seeds {seeds}, per_event "
                             f"{[entry['seed'] for entry in result.per_seed]}")
        for k, (entry, want) in enumerate(zip(stored_per_seed, result.per_seed)):
            for name in ("mean_ll", "mean_cost"):
                _check_mean(entry[name], want[name], f"{what} per_seed[{k}].{name}")
        for name, value in stored.items():
            _check_mean(value, getattr(result, name), f"{what} {name}")
        for n, mean, _ in by_leaves:
            if not math.isfinite(mean):
                raise ValueError(f"{what} per_event ll of the {n}-leaf events has the non-finite mean {mean!r}")
        return result


def _check_mean(stored, recomputed: float, what: str) -> None:
    number = _number(stored, what)
    if not abs(number - recomputed) <= RESULT_MEAN_TOLERANCE:
        raise ValueError(f"{what} {stored!r} is not {recomputed!r}, its value recomputed from per_event")


def _summary(per_event: list[dict]) -> tuple[list[dict], float, float, float]:
    """How a RunResult reduces its per_event rows: each seed's mean LL and
    mean cost, seeds in order of first appearance, then the mean of the
    seed means, their standard error and the mean of the seed costs."""
    by_seed: dict[int, list[dict]] = {}
    for e in per_event:
        by_seed.setdefault(e["seed"], []).append(e)
    per_seed = [
        {
            "seed": seed,
            "mean_ll": float(np.mean([e["ll"] for e in rows])),
            "mean_cost": float(np.mean([e["cost"] for e in rows])),
        }
        for seed, rows in by_seed.items()
    ]
    seed_means = [s["mean_ll"] for s in per_seed]
    sem = float(np.std(seed_means, ddof=1) / np.sqrt(len(seed_means))) if len(seed_means) > 1 else 0.0
    return per_seed, float(np.mean(seed_means)), sem, float(np.mean([s["mean_cost"] for s in per_seed]))


def _leaf_count_means(per_event: list[dict]) -> list[tuple[int, float, int]]:
    """(leaf count, mean LL, number of distinct events) per leaf count,
    in increasing leaf count."""
    bins: dict[int, list[float]] = {}
    seen: dict[int, set] = {}
    for e in per_event:
        bins.setdefault(e["n_leaves"], []).append(e["ll"])
        seen.setdefault(e["n_leaves"], set()).add(e["id"])
    return [(n, float(np.mean(bins[n])), len(seen[n])) for n in sorted(bins)]


# The spec keys each algo reads besides "algo"; a run records only these.
# mcts, listed first, reads every key, so its order is that of
# PLANNER_SPEC_KEYS, in which the CLI builds a spec and a result file
# lists its params.
PLANNER_READS = {
    "mcts": ("b", "n_mcts", "c", "prior", "weights", "final_rule", "rollout_rule"),
    "random": (),
    "greedy": (),
    "beam": ("b",),
    "policy": ("prior", "weights"),
}
# Every key a planner spec may hold; build_planner rejects any other.
PLANNER_SPEC_KEYS = ("algo", *dict.fromkeys(key for keys in PLANNER_READS.values() for key in keys))


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
    """The MCTS settings of a planner spec, checked as MctsConfig checks
    them; a key the spec leaves out keeps the MctsConfig default."""
    fields = {"c": ("c", float), "n_mcts": ("n_mcts", int), "b": ("beam_init_b", int),
              "final_rule": ("final_rule", str), "rollout_rule": ("rollout_rule", str)}
    return MctsConfig(**{name: _spec_value(spec, key, kind) for key, (name, kind) in fields.items() if key in spec})


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
        path = spec.get("weights")
        if not path:
            raise ValueError("prior 'nn' needs a weights file")
        weights, header = load_weights(path)
        return NeuralPolicy(weights, config, include_ps=header["include_ps"])
    raise ValueError(f"unknown prior: {prior!r}")


def evaluate(events: Sequence[EventRecord], spec: dict, n_eval: int, seeds: Sequence[int]) -> RunResult:
    """Run the planner over the first n_eval events once per seed, scoring
    with the config those events carry, which the result names.  The mean
    is the mean of per-seed means and the standard error is taken across
    seeds, matching how trained models with different seeds are compared.
    The result's params are the spec's keys that the algo reads
    (PLANNER_READS).  ValueError unless the evaluated events share one
    config."""
    if not seeds:
        raise ValueError("need at least one seed")
    if n_eval < 1:
        raise ValueError(f"need at least one event to evaluate, got n_eval={n_eval}")
    if len(events) < n_eval:
        raise ValueError(f"dataset has {len(events)} events, need {n_eval}")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds must be distinct, got {list(seeds)}")
    if min(seeds) < 0:
        raise ValueError(f"seeds must be non-negative, got {min(seeds)}")
    subset = list(events[:n_eval])
    config = subset[0].config
    dataset_hash = config_hash(config)
    for event in subset:
        if config_hash(event.config) != dataset_hash:
            raise ValueError(f"event {event.event_id} was generated by config {config_hash(event.config)}, "
                             f"but event {subset[0].event_id} by config {dataset_hash}; "
                             f"evaluate scores a run with one config")
    planner = build_planner(spec, config)
    per_event = []
    for seed in seeds:
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
    return RunResult(
        planner=spec["algo"],
        params={k: v for k, v in spec.items() if k in PLANNER_READS[spec["algo"]]},
        per_event=per_event,
        dataset_hash=dataset_hash,
    )


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

def _run_label(result: RunResult) -> str:
    if not result.params:
        return result.planner
    inner = ",".join(f"{k}={v}" for k, v in sorted(result.params.items()) if v is not None)
    return f"{result.planner}({inner})" if inner else result.planner


# The sections of a comparison, in the order compare() builds them.
COMPARISON_SECTIONS = ("table", "curve", "by_leaf_count")


def compare(results: Sequence[RunResult]) -> dict:
    """Ranked table, cost-vs-quality curve points, and per-leaf-count
    means for runs over the same events."""
    if len(results) < 2:
        raise ValueError("need at least 2 runs to compare")
    id_sets = [sorted({e["id"] for e in r.per_event}) for r in results]
    if any(s != id_sets[0] for s in id_sets[1:]):
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

    by_leaves = [
        {"planner": _run_label(r), "n_leaves": n, "mean_ll": mean, "n_events": n_events}
        for r in results
        for n, mean, n_events in _leaf_count_means(r.per_event)
    ]
    return {"table": table, "curve": curve, "by_leaf_count": by_leaves}


def write_comparison(comparison: dict, out_prefix: str | Path) -> list[Path]:
    """CSV per section plus one JSON with everything, all or none
    (`write_all`).  Every file is rendered first, so a value the JSON
    cannot hold (a non-finite float) raises before any file is written."""
    *csv_paths, json_path = comparison_paths(out_prefix)
    outputs = {}
    for path, name in zip(csv_paths, COMPARISON_SECTIONS):
        rows = comparison[name]
        text = io.StringIO()
        writer = csv.DictWriter(text, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        outputs[path] = [text.getvalue().encode()]
    outputs[json_path] = [(dumps(comparison) + "\n").encode()]
    write_all(outputs, "comparison")
    return list(outputs)


def comparison_paths(out_prefix: str | Path) -> list[Path]:
    """The files write_comparison writes under out_prefix: one CSV per
    section, <prefix>_<section>.csv, then <prefix>.json."""
    out_prefix = Path(out_prefix)
    return ([out_prefix.with_name(f"{out_prefix.name}_{name}.csv") for name in COMPARISON_SECTIONS]
            + [out_prefix.with_name(out_prefix.name + ".json")])
