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
import os
import re
import reprlib
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .costs import PS_EVALUATIONS
from .planners import MctsConfig, check_beam_width, cluster_beam, cluster_greedy, cluster_mcts, cluster_policy, cluster_random, fixed_policy
from .policy import NeuralPolicy, PolicyWeights, load_weights, weights_bytes
from .rng import make_rng
from .shower import FourMomentum, ShowerConfig, Tree, TreeNode, sample_shower, tree_log_likelihood

SCHEMA_VERSION = 2  # run-result files; version 1 also stored the aggregates of its rows
EVENT_SCHEMA_VERSION = 2  # dataset lines; version 1 stored a config hash, not the config
# Largest |truth_ll - tree_log_likelihood(truth)| a loaded event may show.
TRUTH_LL_TOLERANCE = 1e-9

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


# A value read from a file, as its messages show it: its repr, cut to at most
# 40 characters for an int and 30 for a str, six items for a list and four
# for a dict, so that a message stays short whatever the file holds.
_short = reprlib.repr


def _check_schema(obj, what: str, expected: int = SCHEMA_VERSION) -> None:
    version = obj.get("schema_version") if isinstance(obj, dict) else None
    if version != expected:
        raise ValueError(f"{what} has schema_version {_short(version)}, this version reads {expected}")


_NUMBER = frozenset((int, float))
# The fields of each level of a dataset line and of a run-result file, as _decode reads them.
_CONFIG_FIELDS = {"lam": float, "t_cut": float, "root": FourMomentum, "rng_seed": (int,)}
_EVENT_FIELDS = {"id": (int,), "config": _CONFIG_FIELDS, "leaves": [FourMomentum], "truth_ll": float,
                 "truth": {"nodes": [{"p": FourMomentum, "parent": (int, type(None)), "children": (list, type(None))}],
                           "root": (int,)}}
_ROW_FIELDS = {"seed": (int,), "id": (int,), "n_leaves": (int,), "ll": float, "cost": float}
_RESULT_FIELDS = {"planner": (str,), "params": (dict,), "per_event": [_ROW_FIELDS], "dataset_hash": (str, type(None))}


class _FieldError(ValueError):
    """A field missing or not of its kind: args are the reason, then its path's keys, innermost
    first, added as it leaves each level of _decode, so a path (per_event[3].ll) is built only if shown."""

    def __str__(self) -> str:
        path = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in reversed(self.args[1:]))
        return f"{path[1:]} {self.args[0]}".lstrip()


def _decode(value, kind):
    """value decoded as kind, or _FieldError.  A kind is a tuple of types,
    matched exactly (a bool is not an int); float, a finite number (as a
    float); FourMomentum, a list of four finite numbers; a table, a dict of
    kinds by field name, for an object that holds each field and maybe
    others (as the list of their values); or [kind], a list of that kind."""
    if kind is FourMomentum:
        try:  # ValueError unless there are four; OverflowError for an int beyond the float range
            E, px, py, pz = value if type(value) is list else ()
            if (type(E) in _NUMBER and type(px) in _NUMBER and type(py) in _NUMBER and type(pz) in _NUMBER
                    and 0.0 * E + 0.0 * px + 0.0 * py + 0.0 * pz == 0.0):  # nan unless all four are finite
                return FourMomentum(float(E), float(px), float(py), float(pz))
        except (ValueError, OverflowError):
            pass
        raise _FieldError(f"{_short(value)} is not four finite numbers")
    if type(value) is type(kind) is dict:
        decoded = []
        for name in kind:
            try:
                item, item_kind = value[name], kind[name]
                decoded.append(item if type(item_kind) is tuple and type(item) in item_kind else _decode(item, item_kind))
            except KeyError:
                raise _FieldError(f"lacks {', '.join(key for key in kind if key not in value)}") from None
            except _FieldError as exc:
                exc.args += (name,)
                raise
        return decoded
    if type(value) is type(kind) is list:
        decoded, item_kind = [], kind[0]
        for item in value:
            try:
                decoded.append(_decode(item, item_kind))
            except _FieldError as exc:
                exc.args += (len(decoded),)  # the index of the item that failed
                raise
        return decoded
    if kind is float:
        try:
            if type(value) in _NUMBER and math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
        raise _FieldError(f"{_short(value)} is not a finite number")
    if type(kind) is tuple and type(value) in kind:
        return value
    names = ("null" if k is type(None) else k.__name__ for k in (kind if type(kind) is tuple else (type(kind),)))
    raise _FieldError(f"is {type(value).__name__}, not {' or '.join(names)}")


def _truth_tree(rows: list, root: int, leaves: list) -> Tree:
    """The truth tree of a line's decoded nodes and root; ValueError unless
    it is one binary tree whose parent and child links agree and whose
    leaves, in the order the sampler lists them (pre-order, first child
    first), are the line's `leaves`, so that leaf k of the tree is
    particle k of the event."""
    nodes = []
    for k, (momentum, parent, children) in enumerate(rows):
        if children is not None and len(children) != 2:
            raise ValueError(f"truth tree node {k} has children {_short(children)}, not two")
        nodes.append(TreeNode(momentum, parent, children and tuple(children)))
    size = len(nodes)
    if not 0 <= root < size:
        raise ValueError(f"truth tree root {_short(root)} is not a node index below {size}")
    if nodes[root].parent is not None:
        raise ValueError(f"truth tree root {root} has parent {_short(nodes[root].parent)}")
    # Every other node must be reached once, from the parent it names.
    reached = set()
    leaf_indices = []
    stack = [root]
    while stack:
        k = stack.pop()
        if k in reached:
            raise ValueError(f"truth tree node {k} is reached twice from the root")
        reached.add(k)
        children = nodes[k].children
        if children is None:
            leaf_indices.append(k)
            continue
        for c in reversed(children):
            if type(c) is not int or not 0 <= c < size:
                raise ValueError(f"truth tree node {k}'s child {_short(c)} is not a node index below {size}")
            parent = nodes[c].parent
            if parent != k:
                raise ValueError(f"truth tree node {c} is a child of node {k} but names parent {_short(parent)}")
            stack.append(c)
    if len(reached) != size:
        raise ValueError(f"truth tree nodes {sorted(set(range(size)) - reached)} are not reached from the root")
    if [nodes[k].momentum for k in leaf_indices] != leaves:
        raise ValueError("truth tree leaves, in pre-order, differ from the event's leaves")
    return Tree(nodes, root, leaf_indices)


# A dataset line and one truth node in it, as event_to_json fills them in.
_LINE = '{"schema_version":%d,"id":%d,"config":{"lam":%.17g,"t_cut":%.17g,"root":%s,"rng_seed":%d},' \
        '"leaves":[%s],"truth":{"nodes":[%s],"root":%d},"truth_ll":%.17g}'
_NODE = '{"p":%s,"parent":%s,"children":%s}'
_MOMENTUM = "[%.17g,%.17g,%.17g,%.17g]"
# %.17g writes a float as _format_float does but in two cases: -0.0, which
# it writes -0 where _format_float writes 0, and a non-finite float, which
# it writes inf, -inf or nan where _format_float raises.  No other number is
# written -0 (an exponent has two digits) and no key holds inf or nan, so
# event_to_json finds both cases in the text of its line.
_NEGATIVE_ZERO = re.compile(r"-0(?=[,\]}])")


def _event_floats(event: EventRecord) -> Iterator[float]:
    """The floats of event's line, in the order dumps meets them."""
    config = event.config
    yield config.lam
    yield config.t_cut
    yield from config.root.as_tuple()
    for p in event.leaves:
        yield from p.as_tuple()
    for node in event.truth.nodes:
        yield from node.momentum.as_tuple()
    yield event.truth_ll


def event_to_json(event: EventRecord) -> str:
    """One dataset line: the text dumps writes for the event's fields,
    formatted straight from them.  ValueError for a non-finite float, as
    dumps raises."""
    config, nodes = event.config, event.truth.nodes
    texts = [_MOMENTUM % node.momentum.as_tuple() for node in nodes]
    # A generated event's leaves are its truth leaves' momenta, the same
    # objects, so each of those is written once.
    text_of = {id(node.momentum): text for node, text in zip(nodes, texts)}
    line = _LINE % (
        EVENT_SCHEMA_VERSION, event.event_id,
        config.lam, config.t_cut, _MOMENTUM % config.root.as_tuple(), config.rng_seed,
        ",".join([text_of.get(id(p)) or _MOMENTUM % p.as_tuple() for p in event.leaves]),
        ",".join([_NODE % (text, "null" if node.parent is None else "%d" % node.parent,
                           "null" if node.children is None else "[%d,%d]" % node.children)
                  for node, text in zip(nodes, texts)]),
        event.truth.root_index, event.truth_ll)
    if "inf" in line or "nan" in line:
        for x in _event_floats(event):
            _format_float(x)  # raises for the first non-finite float, as dumps does
    return _NEGATIVE_ZERO.sub("0", line)


def event_from_json(line: str, config: ShowerConfig | None = None) -> EventRecord:
    """Decode one dataset line; ValueError if it is not an event of this
    schema version, lacks a field or holds one of another kind (named by
    its path, as in truth.nodes[3].p), if its truth root momentum is not
    its config's `root`, its `truth_ll` is over TRUTH_LL_TOLERANCE from
    its truth tree's log-likelihood, or it stores a config other than
    `config`, which the record then shares.

    Scoring the truth tree makes n - 1 kernel queries for n leaves, which
    add to the global PS_EVALUATIONS tally outside every planner call."""
    obj = json.loads(line)
    _check_schema(obj, "event", EVENT_SCHEMA_VERSION)
    event_id, (lam, t_cut, root, rng_seed), leaves, truth_ll, (nodes, root_index) = _decode(obj, _EVENT_FIELDS)
    if len(obj["config"]) > len(_CONFIG_FIELDS):
        raise ValueError(f"config holds keys other than {', '.join(_CONFIG_FIELDS)}")
    if config is None or (lam, t_cut, root, rng_seed) != (config.lam, config.t_cut, config.root, config.rng_seed):
        first, config = config, ShowerConfig(lam, t_cut, root, rng_seed)  # which rejects a value out of range
        if first is not None:
            raise ValueError("config differs from the first event's; a dataset holds one shower config")
    event = EventRecord(event_id, config, tuple(leaves), _truth_tree(nodes, root_index, leaves), truth_ll)
    truth_root = event.truth.nodes[root_index].momentum
    if truth_root != config.root:
        raise ValueError(f"truth root momentum {truth_root.as_tuple()} is not the config root "
                         f"{config.root.as_tuple()}, where the sampler starts every tree")
    ll = tree_log_likelihood(event.truth, config)
    if not abs(ll - truth_ll) <= TRUTH_LL_TOLERANCE:
        raise ValueError(f"truth_ll {truth_ll!r} differs from the truth tree's log-likelihood {ll!r}")
    return event


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
    ids; a line that is not UTF-8 or not a valid event, stores another
    config or repeats an id raises ValueError naming path:line."""
    events = []
    line_of_id: dict[int, int] = {}
    try:
        # surrogateescape reads a byte that is not UTF-8 as a lone surrogate,
        # so that the line which holds it is the one named.
        with open(path, encoding="utf-8", errors="surrogateescape") as f:
            for lineno, line in enumerate(f, 1):
                if line.isspace():  # a line from a file is never empty
                    continue
                try:
                    if not line.isascii():  # UnicodeDecodeError, a ValueError, for such a byte
                        line.encode("utf-8", "surrogateescape").decode("utf-8")
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
    """A run's rows and what scored them, all that its file holds.  per_seed
    ({seed, mean_ll, mean_cost}), mean_ll, sem_ll and mean_cost are derived
    from per_event by _summary when the result is built, and on load."""
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
        })

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        """Decode a run-result file of this schema version; ValueError
        naming the field unless the file and each of its per_event rows
        hold their fields (_RESULT_FIELDS, _ROW_FIELDS), per_event holds
        one row per (seed, event), and every aggregate derived from it
        (per_seed, mean_ll, sem_ll, mean_cost, each leaf count's mean LL)
        is finite."""
        obj = json.loads(text)
        _check_schema(obj, "run result")
        try:
            planner, params, _, dataset_hash = _decode(obj, _RESULT_FIELDS)
            per_event = obj["per_event"]  # the rows as the file holds them, which a result keeps
            if not per_event:
                raise ValueError("per_event is empty")
            first_row = {}  # (seed, id) and id -> the first row that holds it
            for k, row in enumerate(per_event):
                key = row["seed"], row["id"]
                if first_row.setdefault(key, k) != k:
                    raise ValueError(f"per_event[{k}] repeats the (seed, id) {key} of per_event[{first_row[key]}]")
                j = first_row.setdefault(row["id"], k)
                if row["n_leaves"] != per_event[j]["n_leaves"]:
                    raise ValueError(f"per_event[{k}] gives id {row['id']} other n_leaves than per_event[{j}]")
            seeds = dict.fromkeys(row["seed"] for row in per_event)
            for k, row in enumerate(per_event):
                for seed in seeds:
                    if (seed, row["id"]) not in first_row:
                        raise ValueError(f"per_event[{k}] has id {row['id']}, which seed {seed} has no row of")
            with np.errstate(over="ignore", invalid="ignore"):  # a sum that overflows is reported below
                result = cls(planner, params, per_event, dataset_hash)
                by_leaves = _leaf_count_means(per_event)
            derived = {f"per_seed[{k}].{name}": entry[name]
                       for k, entry in enumerate(result.per_seed) for name in ("mean_ll", "mean_cost")}
            derived.update(mean_ll=result.mean_ll, sem_ll=result.sem_ll, mean_cost=result.mean_cost)
            for name, value in derived.items():
                if not math.isfinite(value):
                    raise ValueError(f"{name} {value!r}, recomputed from per_event, is not finite")
            for n, mean, _ in by_leaves:
                if not math.isfinite(mean):
                    raise ValueError(f"per_event ll of the {n}-leaf events has the non-finite mean {mean!r}")
        except ValueError as exc:
            raise ValueError(f"malformed run result: {exc}") from exc
        return result


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


# The spec keys each algo reads besides "algo"; a run records only these,
# and records weights only with prior "nn", the one prior that reads it.
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
    """Planner callable (leaves, rng) -> (tree, ll) from a spec dict, once
    check_planner_spec passes it; a prior other than 'nn' is checked by
    fixed_policy, and an 'nn' prior's weights file by load_weights."""
    cfg = check_planner_spec(spec)
    algo = spec["algo"]
    if algo == "random":
        return lambda leaves, rng: cluster_random(leaves, config, rng)
    if algo == "greedy":
        return lambda leaves, rng: cluster_greedy(leaves, config)
    if algo == "beam":
        b = spec.get("b", 5)
        return lambda leaves, rng: cluster_beam(leaves, b, config)
    prior = spec.get("prior", "random")
    if prior == "nn":
        weights, header = load_weights(spec["weights"])
        policy = NeuralPolicy(weights, config, include_ps=header["include_ps"])
    else:
        policy = fixed_policy(prior, config)
    if algo == "policy":
        return lambda leaves, rng: cluster_policy(leaves, policy, config)
    return lambda leaves, rng: cluster_mcts(leaves, policy, cfg, config, rng)[:2]


def check_planner_spec(spec: dict) -> MctsConfig | None:
    """ValueError naming the first setting of spec that no planner takes,
    of those a check needs no file for: a key not in PLANNER_SPEC_KEYS, an
    unknown algo, a beam width check_beam_width rejects, MCTS settings
    MctsConfig rejects, or an 'nn' prior that names no weights file.  The
    spec's MctsConfig if its algo is mcts, else None.  build_planner calls
    it, and the CLI before it reads a dataset."""
    unknown = sorted(str(key) for key in spec if key not in PLANNER_SPEC_KEYS)
    if unknown:
        raise ValueError(f"unknown planner spec keys: {', '.join(unknown)}")
    algo = spec.get("algo")
    if algo == "beam":
        check_beam_width(spec.get("b", 5))
    elif algo not in ("random", "greedy", "policy", "mcts"):
        raise ValueError(f"unknown planner algo: {algo!r}")
    cfg = mcts_config(spec) if algo == "mcts" else None
    if algo in ("policy", "mcts") and spec.get("prior") == "nn" and not spec.get("weights"):
        raise ValueError("prior 'nn' needs a weights file")
    return cfg


def mcts_config(spec: dict) -> MctsConfig:
    """The MCTS settings of a planner spec, passed unchanged to MctsConfig,
    which checks them; spec key b is field beam_init_b, and a key the spec
    leaves out keeps the MctsConfig default."""
    fields = {"c": "c", "n_mcts": "n_mcts", "b": "beam_init_b", "final_rule": "final_rule",
              "rollout_rule": "rollout_rule"}
    return MctsConfig(**{field: spec[key] for key, field in fields.items() if key in spec})


def evaluate(events: Sequence[EventRecord], spec: dict, n_eval: int, seeds: Sequence[int]) -> RunResult:
    """Run the planner over the first n_eval events once per seed, scoring
    with the config those events carry, which the result names.  The mean
    is the mean of per-seed means and the standard error is taken across
    seeds, matching how trained models with different seeds are compared.
    The result's params are the spec's keys that the algo reads
    (PLANNER_READS), weights only with prior 'nn'.  ValueError unless the
    evaluated events share one config and have distinct ids."""
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
    ids = [event.event_id for event in subset]
    if len(set(ids)) != len(ids):
        raise ValueError(f"event ids {sorted({i for i in ids if ids.count(i) > 1})} repeat among the evaluated events")
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
        params={k: v for k, v in spec.items() if k in PLANNER_READS[spec["algo"]]
                and (k != "weights" or spec.get("prior") == "nn")},
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
