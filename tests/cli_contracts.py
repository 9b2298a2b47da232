"""The command-line contracts of `jetclust`, as one table, and a runner.

Each row of CONTRACTS is one command: its argv, the exit code it must
return, a piece of the message it must print to stderr, what its stdout
must hold, the files it must write, and any input files it writes first.
Beyond its own fields, every row holds to the rules that `check` applies:

- a command that exits 0 prints nothing to stderr, and one that fails
  prints nothing to stdout and names its error;
- a command that fails writes no file, and one that exits 0 writes
  exactly the row's `writes`, none of them empty.

A row runs in a fresh working directory that holds the shared inputs
(INPUTS: a dataset, two run results and a weights file, made once by
`make_inputs`) and the row's own files.  A row that shows a check is made
before any input is read names an input that does not exist: its message
can then only appear if nothing was read first.

CONTRACTS maps a contract's name to its rows; a name may end in a case in
brackets.  tests/test_harness.py runs every row through `cli()`, one test
per name.  Run as a script, this file runs every row through the command
it is given, as CI does with the installed entry point:

    python tests/cli_contracts.py jetclust
    PYTHONPATH=$PWD/src python tests/cli_contracts.py python -m jetclust

A new CLI error is added as one row.  This module imports only the
standard library, so it runs without the test dependencies.
"""

import json
import shlex
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple


class Row(NamedTuple):
    argv: list[str]
    code: int
    err: str = ""  # a substring of stderr
    out: str | None = None  # a substring of stdout; "" means stdout is empty
    writes: tuple[str, ...] = ()
    # Input files, by name: text, bytes, or a function of the working
    # directory that returns either.  A name that ends in "/" is a directory.
    files: dict[str, str | bytes | Callable] = {}


def row(command: str, code: int, err: str = "", *, out: str | None = None, writes: tuple[str, ...] = (),
        files: dict | None = None) -> Row:
    return Row(shlex.split(command), code, err, out, writes, files or {})


SMALL = "--lam 1.5 --t-cut 1.0 --root 5 0 0 1.5"  # events of 2-11 leaves
# Made in this order; d.jsonl holds 4 events of 4, 4, 5 and 6 leaves.
INPUTS = {
    "d.jsonl": f"generate --n-events 4 {SMALL} --out d.jsonl --quiet",
    "a.json": "evaluate --algo greedy --in d.jsonl --out a.json --quiet",
    "b.json": "evaluate --algo random --in d.jsonl --out b.json --quiet",
    "w.bin": "train --steps 5 --in d.jsonl --out w.bin --quiet",
}
MISSING = "missing.jsonl"  # an --in that does not exist
COMPARISON = ("{}.json", "{}_table.csv", "{}_curve.csv", "{}_by_leaf_count.csv")
OUT_COMMANDS = ["generate", "cluster", "mle", "train", "evaluate", "compare"]


def out_argv(command: str, out: str, data: str = "d.jsonl", results: str = "a.json b.json") -> list[str]:
    """A command line of `command` that writes `out`, reading `data` (or
    the `results`, for compare)."""
    return shlex.split({
        "generate": "generate",
        "cluster": f"cluster --algo greedy --in {data}",
        "mle": f"mle --in {data}",
        "train": f"train --steps 2 --in {data}",
        "evaluate": f"evaluate --algo greedy --in {data}",
        "compare": f"compare {results}",
    }[command]) + ["--out", out]


def too_long_outs(name_max: int) -> dict[str, list[str]]:
    """Per subcommand, --out values one byte too long for NAME_MAX: in
    ASCII and in two-byte characters; for compare, in its longest
    derived name, <prefix>_by_leaf_count.csv."""
    outs = {}
    for command in OUT_COMMANDS:
        room = name_max - (len("_by_leaf_count.csv") if command == "compare" else 0)
        outs[command] = ["a" * (room + 1), "é" * (room // 2) + "a" * (room % 2 + 1)]
    return outs


def _unread(command: str, out: str, err: str) -> Row:
    """A usage error of `command` writing `out`, whose inputs do not exist."""
    return Row(out_argv(command, out, MISSING, "missing-a.json missing-b.json"), 1, err)


# ---------------------------------------------------------------------------
# input files derived from the shared inputs
# ---------------------------------------------------------------------------

def schema_2(obj: dict) -> dict:
    """Event obj as a schema-2 line writes it, with its truth leaves'
    momenta, in pre-order, stored again as its leaves."""
    nodes, leaves, stack = obj["truth"]["nodes"], [], [obj["truth"]["root"]]
    while stack:
        node = nodes[stack.pop()]
        if node["children"] is None:
            leaves.append(node["p"])
        else:
            stack += reversed(node["children"])
    old = {key: value for key, value in obj.items() if key not in ("truth", "truth_ll")}
    return {**old, "schema_version": 2, "leaves": leaves, "truth": obj["truth"], "truth_ll": obj["truth_ll"]}


def _dataset_with(lineno: int, change: Callable[[dict], object]):
    """d.jsonl with change applied to the event of line lineno."""
    def make(directory: Path) -> str:
        lines = (directory / "d.jsonl").read_text().splitlines()
        obj = json.loads(lines[lineno - 1])
        lines[lineno - 1] = json.dumps(change(obj) or obj)
        return "\n".join(lines) + "\n"
    return make


def _result_with(change: Callable[[dict], object], name: str = "a.json"):
    """The run result `name` with change applied to its JSON object."""
    def make(directory: Path) -> str:
        obj = json.loads((directory / name).read_text())
        change(obj)
        return json.dumps(obj)
    return make


def _weights_with(change: Callable[[dict, bytes], tuple[dict, bytes]]):
    """w.bin with its header object and payload replaced by change(header, payload)."""
    def make(directory: Path) -> bytes:
        header, payload = (directory / "w.bin").read_bytes().split(b"\n", 1)
        header, payload = change(json.loads(header), payload)
        return json.dumps(header).encode() + b"\n" + payload
    return make


def _set(obj, path, value=None, delete=False):
    for key in path[:-1]:
        obj = obj[key]
    if delete:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value


def _one_node_truth(obj):
    """The root alone, as a leaf, scores 0, so such a line's truth_ll is 0."""
    obj["truth"] = {"nodes": [{"p": obj["config"]["root"], "parent": None, "children": None}], "root": 0}
    obj["truth_ll"] = 0.0


_NAN = struct.pack("<d", float("nan"))
# A field of a run result set to a value of the wrong type, by case: its path and the value.
_MISTYPED = {
    "per_event/0/ll:str": (("per_event", 0, "ll"), "x"),
    "per_event/0/ll:NoneType": (("per_event", 0, "ll"), None),
    "per_event/0/id:list": (("per_event", 0, "id"), [1]),
    "per_event/0/id:bool": (("per_event", 0, "id"), True),
    "per_event/0/n_leaves:str": (("per_event", 0, "n_leaves"), "5"),
    "per_event/1:list": (("per_event", 1), ["id", "n_leaves", "ll"]),
    "params:list": (("params",), [1]),
    "dataset_hash:list": (("dataset_hash",), ["a"]),
    "planner:int": (("planner",), 3),
    "per_event/2/ll:float": (("per_event", 2, "ll"), float("inf")),
}


def _field_path(path) -> str:
    return "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)[1:]


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------

_SEED = "usage error: --seed must be >= 0, got -1\n"
_INIT = "usage error: --init-weights continues --mode mcts only, not --mode {}\n"
_CONFIG_VALUE = "usage error: config file cfg.json: {}={} is not a valid value for {}\n"
_NO_EVENT = "error: dataset ev.jsonl is empty\n"
_DIVERGED = "error: training diverged: step 4 has loss inf at lr={}\n"
_OVERFLOWS = "has mass-squared {}; the sampler needs it and its square to be finite, so the root overflows\n"
_BAD_WEIGHTS = "evaluate --algo policy --prior nn --weights bad.bin --in d.jsonl --out r.json --seed 9"

CONTRACTS: dict[str, list[Row]] = {
    "cli_exit_codes": [
        row("frobnicate", 1, "argument command: invalid choice: 'frobnicate'"),
        row("cluster --bogus-flag", 1, "unrecognized arguments: --bogus-flag"),
        row("generate --bogus --out z.jsonl", 1, "unrecognized arguments: --bogus"),
        row("cluster --algo nope", 1, "argument --algo: invalid choice: 'nope'"),
        row("cluster --algo greedy", 1, "usage error: --in dataset file is required\n"),
        row(f"cluster --algo greedy --in {MISSING}", 2, f"error: cannot read dataset from {MISSING}: "),
        row("--help", 0, out="usage: jetclust"),
        row("compare only_one.json", 1, "usage error: compare needs at least 2 result files\n"),
    ],
    **{f"cli_prints_help[{command}]": [row(f"{command} --help", 0, out=f"usage: jetclust {command}")]
       for command in OUT_COMMANDS},
    # What each subcommand writes, for each planner, prior and training mode.
    "cli_runs_each_subcommand[generate]": [
        row("generate --n-events 3 --quiet --out events.jsonl", 0, out="", writes=("events.jsonl",)),
        row("generate --n-events 2 --out x.jsonl", 0, out="wrote 2 events to x.jsonl", writes=("x.jsonl",)),
    ],
    "cli_runs_each_subcommand[cluster]": [row("cluster --algo greedy --in d.jsonl", 0, out="greedy: mean LL ")],
    **{f"cli_runs_each_subcommand[evaluate-{case}]": [
        row(f"evaluate {flags} --in d.jsonl --out r.json --quiet", 0, out=" mean LL ", writes=("r.json",))]
       for case, flags in [
           ("mcts", "--algo mcts --n-mcts 2 --b 1"),
           ("mcts-puct-visits", "--algo mcts --n-mcts 2 --b 1 --final-rule puct-visits"),
           ("mcts-policy-sample", "--algo mcts --n-mcts 2 --b 1 --rollout-rule policy-sample"),
           ("mcts-nn", "--algo mcts --prior nn --weights w.bin --n-mcts 2 --b 1"),
           ("mcts-ps", "--algo mcts --prior proportional-to-ps --n-mcts 2 --b 1"),
           ("policy-nn", "--algo policy --prior nn --weights w.bin"),
       ]},
    **{f"cli_runs_each_subcommand[train-{case}]": [
        row(f"train {flags} --in d.jsonl --out t.bin --quiet", 0, out="", writes=("t.bin",))]
       for case, flags in [
           ("bc", "--steps 5"),
           ("mle-bc", "--mode mle-bc --steps 5"),
           ("mcts", "--mode mcts --init-weights w.bin --n-mcts 2 --b 1 --steps 3"),
       ]},
    "cli_runs_each_subcommand[mle]": [
        row("mle --max-n 11 --in d.jsonl --out mle.json --quiet", 0, out="mean MLE LL over 4 events",
            writes=("mle.json",)),
    ],
    "cli_generate_then_cluster": [
        row(f"generate --n-events 10 --seed 7 --out g.jsonl {SMALL}", 0, out="wrote 10 events to g.jsonl",
            writes=("g.jsonl",)),
        row("cluster --algo greedy --in d.jsonl --seed 7", 0, out="mean LL"),
    ],
    "cli_quiet_suppresses_chatter": [
        row(f"generate --n-events 3 --seed 1 --out g.jsonl --quiet {SMALL}", 0, out="", writes=("g.jsonl",)),
    ],
    "cli_compare": [
        row("compare a.json b.json --out cmp", 0,
            out="wrote cmp_table.csv, cmp_curve.csv, cmp_by_leaf_count.csv, cmp.json\n",
            writes=tuple(name.format("cmp") for name in COMPARISON)),
    ],
    "cli_train_and_policy_cluster": [
        row("train --mode bc --in d.jsonl --steps 60 --lr 0.05 --seed 9 --out t.bin", 0,
            out="wrote weights to t.bin", writes=("t.bin",)),
        row("cluster --algo policy --prior nn --weights w.bin --in d.jsonl --seed 9", 0, out="mean LL"),
    ],
    # mle
    "cli_mle_skips_large_events": [
        row("mle --in d.jsonl --max-n 4", 0, out="skipping event 2: 5 leaves > max-n 4\n"),
    ],
    "cli_mle_rejects_max_n_outside_the_cost_guard": [
        row(f"mle --in {MISSING} --max-n {n} --out mle.json", 1, f"usage error: --max-n must be in 2..16, got {n}\n")
        for n in ("1", "0", "-3", "17", "30")
    ],
    "cli_mle_accepts_max_n_at_both_ends": [row(f"mle --in d.jsonl --max-n {n} --quiet", 0) for n in ("2", "16")],
    # --seed
    **{f"cli_rejects_a_negative_seed[{source}-{command}]": [
        Row([command, "--out", "out", *(["--algo", "greedy"] if command in ("cluster", "evaluate") else []),
             *([] if command == "generate" else ["--in", MISSING]),
             *(["--seed", "-1"] if source == "flag" else ["--config", "c.json"])],
            1, _SEED, files={"c.json": '{"seed": -1}'} if source == "config" else {})]
       for source in ("flag", "config") for command in ("generate", "cluster", "evaluate", "train")},
    "cli_seed_is_only_on_the_subcommands_that_read_it[mle]": [
        row("mle --in d.jsonl --max-n 4 --seed 7 --quiet", 1, "unrecognized arguments: --seed 7"),
        row("mle --seed 1 --in d.jsonl", 1, "unrecognized arguments: --seed 1"),
        # A config file's seed serves the subcommands that read one, and is
        # not checked for one that reads none.
        row("mle --in d.jsonl --max-n 4 --config c.json --quiet", 0, files={"c.json": '{"seed": -1}'}),
    ],
    "cli_seed_is_only_on_the_subcommands_that_read_it[compare]": [
        row("compare a.json b.json --out cmp --seed 7 --quiet", 1, "unrecognized arguments: --seed 7"),
        row("compare a.json b.json --out cmp --config c.json --quiet", 0, out="",
            writes=tuple(name.format("cmp") for name in COMPARISON), files={"c.json": '{"seed": -1}'}),
    ],
    # --out: checked before any input is read, and written all or none
    **{f"cli_compare_out_must_name_a_file_prefix[{out}]": [
        _unread(command, out, f"usage error: --out must end in a file name, got {out!r}\n")
        for command in OUT_COMMANDS]
       for out in (".", "..", "", "cmp/", "cmp/.", "cmp/..")},
    "cli_compare_out_in_a_missing_directory_is_a_usage_error": [
        _unread(command, "nodir/x", "usage error: --out 'nodir/x' is in a directory that does not exist\n")
        for command in OUT_COMMANDS
    ] + [row("compare a.json b.json --out nodir/cmp --quiet", 1, "usage error: --out 'nodir/cmp' is in a directory")],
    # Assumes NAME_MAX 255, as on Linux and macOS file systems.
    "cli_out_name_longer_than_name_max_is_a_usage_error": [
        _unread(command, out,
                f"usage error: --out {out!r} makes a file name of 256 bytes; its directory allows 255\n")
        for command, outs in too_long_outs(255).items() for out in outs
    ] + [
        row(f"generate --n-events 3 --out {'a' * 256}.jsonl --quiet", 1, "makes a file name of 262 bytes; "),
        row(f"compare a.json b.json --out {'a' * 256} --quiet", 1, "makes a file name of 274 bytes; "),
    ],
    **{f"cli_out_that_cannot_be_written_is_a_runtime_error_after_no_summary[{command}]": [
        Row(out_argv(command, "x") + ["--quiet"], 2, f"error: cannot write {what} to x: ", files={"x/": ""})]
       for command, what in [("cluster", "per-event results"), ("mle", "MLE results"), ("evaluate", "run result"),
                             ("train", "weights")]},
    "cli_compare_writes_all_of_its_outputs_or_none": [
        row("compare a.json b.json --out out/x", 2, f"error: cannot write comparison to out/{blocker}: ",
            files={"out/": "", f"out/{blocker}/": ""})
        for blocker in ("x.json", "x_table.csv", "x_by_leaf_count.csv")
    ] + [
        row("compare a.json b.json --out out/x --quiet", 0, out="",
            writes=tuple("out/" + name.format("x") for name in COMPARISON), files={"out/": ""}),
    ],
    # a subcommand's own settings, checked before any input is read
    "cli_generate_rejects_fewer_than_one_event": [
        row(f"generate --n-events {n} --out g.jsonl {SMALL}", 1, f"usage error: --n-events must be >= 1, got {n}\n")
        for n in ("0", "-3")
    ],
    "cli_evaluate_rejects_fewer_than_one_event": [
        row(f"evaluate --algo greedy --n-eval {n} --in {MISSING} --out r.json --seed 5", 1,
            f"usage error: --n-eval must be >= 1, got {n}\n")
        for n in ("0", "-1")
    ],
    "cli_evaluate_rejects_fewer_than_one_seed": [
        row(f"evaluate --algo greedy --seeds {n} --in {MISSING} --out r.json --seed 5", 1,
            f"usage error: --seeds must be >= 1, got {n}\n")
        for n in ("0", "-2")
    ],
    **{f"cli_checks_algo_before_reading_the_dataset[{command}]": [
        row(f"{command} --in {MISSING}" + (" --out r.json" if command == "evaluate" else ""), 1,
            "usage error: --algo is required\n")]
       for command in ("cluster", "evaluate")},
    **{f"cli_checks_planner_settings_before_reading_the_dataset[{case}]": [
        row(f"{flags} --in {MISSING} --out out", 2, f"error: {message}")]
       for case, flags, message in [
           ("train-nan-c", "train --mode mcts --c nan", "c, the exploration constant, must be a finite number > 0"),
           ("train-zero-c", "train --mode mcts --c 0", "c, the exploration constant, must be a finite number > 0"),
           ("train-nothing-to-decide", "train --mode mcts --n-mcts 0 --b 0", "n_mcts=0 without beam initialization"),
           ("evaluate-zero-c", "evaluate --algo mcts --c 0",
            "c, the exploration constant, must be a finite number > 0"),
           ("cluster-negative-b", "cluster --algo mcts --b -1", "beam_init_b must be non-negative"),
           ("cluster-zero-width", "cluster --algo beam --b 0", "beam width must be an int >= 1, got 0"),
           ("evaluate-negative-width", "evaluate --algo beam --b -2", "beam width must be an int >= 1, got -2"),
           ("evaluate-policy-nn-without-weights", "evaluate --algo policy --prior nn",
            "prior 'nn' needs a weights file"),
           ("evaluate-mcts-nn-without-weights", "evaluate --algo mcts --prior nn", "prior 'nn' needs a weights file"),
           ("cluster-mcts-nn-without-weights", "cluster --algo mcts --prior nn", "prior 'nn' needs a weights file"),
       ]},
    **{f"cli_train_rejects_init_weights_outside_mcts[{source}-{init}-{mode}]": [
        Row(shlex.split(f"train --mode {mode} --in d.jsonl --steps 5 --out t.bin")
            + (["--init-weights", path] if source == "flag" else ["--config", "c.json"]),
            1, _INIT.format(mode), files={"c.json": json.dumps({"init_weights": path})} if source == "config" else {})]
       for source in ("flag", "config") for init, path in (("written", "w.bin"), ("missing", "nope.bin"))
       for mode in ("bc", "mle-bc")},
    "cli_train_rejects_bad_steps_from_a_config_file": [
        row(f"train --config c.json --in {MISSING} --out t.bin", 1, "usage error: --steps must be >= 1, got 0\n",
            files={"c.json": '{"steps": 0}'}),
    ],
    "cli_train_that_diverges_writes_no_weights": [
        row(f"train --lr {lr} --steps {steps} --in d.jsonl --out t.bin", 2, _DIVERGED.format(shown))
        for lr, steps, shown in (("3000", 200, "3000.0"), ("1e150", 5, "1e+150"))
    ],
    # the density flags
    "cli_rejects_density_flags_that_miss_the_dataset": [
        Row(out_argv(command, "r.json") + shlex.split(flags), 1, f"unrecognized arguments: {flags}")
        for flags in ("--lam 1.5", "--t-cut 1.0", "--root 25 0 0 15")
        for command in ("cluster", "mle", "train", "evaluate", "compare")
    ],
    "cli_generate_rejects_non_finite_density_flags": [
        row(f"generate --n-events 2 --out g.jsonl {flags}", 2, f"error: {message}")
        for flags, message in [
            ("--lam nan", "lam, t_cut and root must be finite, got ShowerConfig(lam=nan, "),
            ("--t-cut inf", "lam, t_cut and root must be finite, got ShowerConfig(lam=1.5, t_cut=inf, "),
            ("--root 25 nan 0 15", "lam, t_cut and root must be finite, got ShowerConfig(lam=1.5, t_cut=1.0, "
                                   "root=FourMomentum(E=25.0, px=nan, "),
            # finite, but its normaliser log(1 - exp(-lam)) is not
            ("--lam 1e-300", "lam 1e-300 is too small: exp(-lam) rounds to 1"),
        ]
    ],
    **{f"cli_generate_rejects_a_root_whose_mass_squared_overflows[{case}]": [
        row(f"generate --n-events 2 --out g.jsonl --root {root}", 2, f"error: root {shown} " + _OVERFLOWS.format(t))]
       for case, root, shown, t in [
           ("infinite-t", "1e160 0 0 1e150", "(1e+160, 0.0, 0.0, 1e+150)", "inf"),
           ("t-squared-overflows", "1e154 0 0 0", "(1e+154, 0.0, 0.0, 0.0)", "1e+308"),
           ("t-overflows", "1e155 0 0 0", "(1e+155, 0.0, 0.0, 0.0)", "inf"),
       ]},
    "load_rejects_a_stored_root_whose_mass_squared_overflows": [
        row("cluster --algo greedy --in bad.jsonl", 2, "error: bad.jsonl:2: root (1e+154, 0.0, 0.0, 0.0) "
            + _OVERFLOWS.format("1e+308"),
            files={"bad.jsonl": _dataset_with(2, lambda obj: _set(obj, ("config", "root"), [1e154, 0.0, 0.0, 0.0]))}),
    ],
    "cli_rejects_a_root_with_negative_energy": [
        row("generate --n-events 2 --out g.jsonl --root -25 0 0 15", 2,
            "error: root (-25.0, 0.0, 0.0, 15.0) has negative energy; the sampler needs E >= 0\n"),
        row("cluster --algo greedy --in bad.jsonl", 2,
            "error: bad.jsonl:2: root (-5.0, 0.0, 0.0, 1.5) has negative energy",
            files={"bad.jsonl": _dataset_with(2, lambda obj: _set(obj, ("config", "root"), [-5.0, 0.0, 0.0, 1.5]))}),
    ],
    # dataset lines
    "cli_names_an_input_file_that_holds_no_event": [
        Row(argv + ["--in", "ev.jsonl"], 2, _NO_EVENT, files={"ev.jsonl": "\n \n"})
        for argv in (["cluster", "--algo", "greedy"], ["mle"], ["train", "--steps", "2", "--out", "w2.bin"],
                     ["evaluate", "--algo", "greedy", "--out", "r.json"])
    ],
    **{f"cli_rejects_a_dataset_line_at_its_path[{case}]": [
        row(f"cluster --algo greedy --in {name}", 2, f"error: {name}:{message}", files={name: content})]
       for case, name, content, message in [
           ("schema-2", "v2.jsonl", _dataset_with(1, schema_2),
            "1: event has schema_version 2, this version reads 3\n"),
           ("no-p", "no-p.jsonl", _dataset_with(2, lambda obj: _set(obj, ("truth", "nodes", 0, "p"), delete=True)),
            "2: truth.nodes[0] lacks p\n"),
           ("not-utf8", "not-utf8.jsonl", b"\xff\xfe\n", "1: 'utf-8' codec can't decode byte 0xff in position 0"),
           ("root-is-a-leaf", "bad.jsonl", _dataset_with(2, _one_node_truth),
            "2: truth tree root 0 is a leaf; an event needs at least 2 leaves\n"),
       ]},
    # config files
    **{f"cli_usage_errors_before_any_work[{case}]": [
        row(f"cluster --in d.jsonl --out r.json {flags}", 1, f"usage error: {message}\n", files=files)]
       for case, flags, message, files in [
           ("missing config", "--algo greedy --config cfg.json", "config file not found: cfg.json", {}),
           ("config not an object", "--config cfg.json", "config file cfg.json is not a JSON object",
            {"cfg.json": '["algo", "greedy"]'}),
           ("no algo", "", "--algo is required", {}),
       ]},
    "cli_config_file_that_is_not_utf8_json_is_a_usage_error": [
        row("generate --config cfg.json --out g.jsonl", 1, "usage error: config file cfg.json is not UTF-8 JSON: ",
            files={"cfg.json": content})
        for content in (b"{not json", b"\xff\xfe")
    ] + [
        # a directory fails on open, whose error names the path
        row("generate --config cfgdir --out g.jsonl", 2, "error: [Errno 21] Is a directory: 'cfgdir'\n",
            files={"cfgdir/": ""}),
    ],
    "cli_config_file_rejects_keys_that_name_no_flag": [
        row("cluster --config cfg.json --in d.jsonl --out r.json --seed 3", 1,
            f"usage error: config file cfg.json has keys that name no flag: {key}\n",
            files={"cfg.json": json.dumps({"algo": "mcts", "lam": 1.5, key: value})})
        for key, value in (("n_mct", 0), ("no_beam_init", True))
    ] + [
        # a key of another subcommand's flag is fine: one file serves them all
        row("cluster --config cfg.json --in d.jsonl --out r.json --seed 3", 0, out="greedy: mean LL ",
            writes=("r.json",), files={"cfg.json": '{"algo": "greedy", "n_events": 7, "steps": 5}'}),
    ],
    "cli_config_file_rejects_values_of_the_wrong_type": [
        row("generate --config cfg.json --out g.jsonl", 1, _CONFIG_VALUE.format(key, json.dumps(value), flag),
            files={"cfg.json": json.dumps({"n_events": 3, key: value})})
        for key, value, flag in [("n_events", "many", "--n-events"), ("n_events", 2.5, "--n-events"),
                                 ("seed", True, "--seed"), ("quiet", 1, "--quiet"),
                                 ("root", [25.0, 0.0, 15.0], "--root"), ("lam", [1.5], "--lam"), ("out", 3, "--out")]
    ] + [
        row(f"cluster --config cfg.json --in {MISSING}", 1, _CONFIG_VALUE.format(key, json.dumps(value), flag),
            files={"cfg.json": json.dumps({key: value})})
        for key, value, flag in [("algo", "quantum", "--algo"), ("final_rule", "most-visits", "--final-rule"),
                                 ("b", "five", "--b")]
    ] + [
        # values a flag would parse from its string are fine, as on the command line
        row("generate --config cfg.json", 0, out="", writes=("g.jsonl",), files={"cfg.json": json.dumps(
            {"n_events": "3", "lam": 1, "quiet": True, "out": "g.jsonl", "root": [25, 0, 0, 15]})}),
    ],
    # weights files
    **{f"cli_policy_cluster_rejects_damaged_weights[{case}]": [
        row("cluster --algo policy --prior nn --weights bad.bin --in d.jsonl --seed 9", 2, f"error: bad.bin: {message}",
            files={"bad.bin": content})]
       for case, content, message in [
           ("truncate", _weights_with(lambda header, payload: (header, payload[:-3])),
            "payload of 40965 bytes, the header's shapes need 40968"),
           ("nan", _weights_with(lambda header, payload: (header, _NAN + payload[8:])),
            "1 of 5121 weights are not finite\n"),
       ]},
    "cli_rejects_weights_header_without_shapes": [
        row(_BAD_WEIGHTS, 2, "error: bad.bin: weights header has no 'shapes' field\n",
            files={"bad.bin": _weights_with(lambda header, payload: (
                {k: v for k, v in header.items() if k != "shapes"}, payload))}),
    ],
    # None drops the field.  The weights are the network's with the p_s
    # feature, so its include_ps must be true itself, not a truthy value.
    **{f"cli_rejects_weights_header_fields_it_acts_on[{field}-{value}]": [
        row(_BAD_WEIGHTS, 2, f"error: bad.bin: {message}\n", files={"bad.bin": _weights_with(
            lambda header, payload, field=field, value=value: (
                {**{k: v for k, v in header.items() if k != field}, **({} if value is None else {field: value})},
                payload))})]
       for field, value, message in [
           ("dtype", ">f8", "weights dtype '>f8', this version reads '<f8'"),
           ("dtype", "<f4", "weights dtype '<f4', this version reads '<f8'"),
           ("dtype", None, "weights dtype None, this version reads '<f8'"),
           ("include_ps", "no", "weights header include_ps 'no' is not True, which its shapes imply"),
           ("include_ps", False, "weights header include_ps False is not True, which its shapes imply"),
           ("include_ps", 1, "weights header include_ps 1 is not True, which its shapes imply"),
           ("include_ps", None, "weights header include_ps None is not True, which its shapes imply"),
       ]},
    # run-result files
    "cli_compare_rejects_result_with_missing_field": [
        row("compare a.json bad.json --out cmp", 2, "error: bad.json: malformed run result: lacks params",
            files={"bad.json": '{"schema_version": 2, "planner": "greedy"}'}),
    ],
    **{f"cli_compare_rejects_per_event_entry_without_field[{field}]": [
        row("compare a.json bad.json --out cmp", 2,
            f"error: bad.json: malformed run result: per_event[1] lacks {field}\n",
            files={"bad.json": _result_with(lambda obj, field=field: _set(obj, ("per_event", 1, field), delete=True))})]
       for field in ("id", "n_leaves", "ll")},
    "cli_compare_rejects_results_without_per_event_entries": [
        row("compare x.json y.json --out cmp", 2, "error: x.json: malformed run result: per_event is empty\n",
            files={name: _result_with(lambda obj: _set(obj, ("per_event",), [])) for name in ("x.json", "y.json")}),
    ],
    **{f"cli_compare_rejects_a_field_of_the_wrong_type[{case}]": [
        row("compare a.json bad.json --out cmp", 2, f"error: bad.json: malformed run result: {_field_path(path)} ",
            files={"bad.json": _result_with(lambda obj, path=path, value=value: _set(obj, path, value))})]
       for case, (path, value) in _MISTYPED.items()},
}


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------

Run = Callable[[list[str], Path], tuple[int, str, str]]  # argv, working directory -> exit code, stdout, stderr


def make_inputs(directory: Path, run: Run) -> None:
    """Write INPUTS into directory by running their commands."""
    for name, command in INPUTS.items():
        code, _, err = run(shlex.split(command), directory)
        if code != 0 or not (directory / name).is_file():
            raise RuntimeError(f"{command} exited {code}: {err}")


def _paths(directory: Path) -> set[str]:
    return {p.relative_to(directory).as_posix() for p in directory.rglob("*")}


def check(r: Row, directory: Path, run: Run) -> list[str]:
    """Write r's files into directory, run r's argv there, and return what
    differs from the row and the rules; an empty list if nothing does."""
    for name, content in r.files.items():
        path = directory / name
        if name.endswith("/"):
            path.mkdir()
            continue
        content = content(directory) if callable(content) else content
        if isinstance(content, str):
            content = content.encode()
        path.write_bytes(content)
    before = _paths(directory)
    code, out, err = run(r.argv, directory)
    made = _paths(directory) - before
    problems = []
    if code != r.code:
        problems.append(f"exit {code}, want {r.code}")
    if code and not r.err:
        problems.append("a failing row must name its error")
    if r.err not in err:
        problems.append(f"stderr lacks {r.err!r}")
    if r.out is not None and (r.out not in out if r.out else out):
        problems.append(f"stdout lacks {r.out!r}" if r.out else "stdout is not empty")
    if code == 0 and err:
        problems.append("stderr is not empty")
    if code and out:
        problems.append("stdout is not empty")
    if made != set(r.writes if code == 0 else ()):
        problems.append(f"wrote {sorted(made)}, want {sorted(r.writes if code == 0 else ())}")
    problems += [f"{name} is empty" for name in sorted(made) if (directory / name).is_file()
                 and (directory / name).stat().st_size == 0]
    if problems:
        problems.append(f"stdout {out[-300:]!r}, stderr {err[-300:]!r}")
    return problems


def main(prefix: list[str], contracts: dict[str, list[Row]] = CONTRACTS) -> int:
    """Run every row of contracts through the command prefix, each in a
    fresh directory; print each failing row and return 1 if any failed or
    none ran."""
    rows = [(name, k, r) for name, rs in contracts.items() for k, r in enumerate(rs)]
    if not rows:
        print("no rows to run")
        return 1

    def run(argv: list[str], cwd: Path) -> tuple[int, str, str]:
        done = subprocess.run([*prefix, *argv], cwd=cwd, capture_output=True, encoding="utf-8",
                              errors="backslashreplace", timeout=600)
        return done.returncode, done.stdout, done.stderr

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp, "inputs")
        inputs.mkdir()
        make_inputs(inputs, run)
        for name, k, r in rows:
            directory = Path(tmp, "row")
            shutil.copytree(inputs, directory)
            problems = check(r, directory, run)
            shutil.rmtree(directory)
            if problems:
                failed += 1
                print(f"FAIL {name} row {k}: {shlex.join(r.argv)}\n    " + "\n    ".join(problems))
    print(f"{len(rows) - failed} of {len(rows)} rows passed")
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tests/cli_contracts.py COMMAND [ARG...]   (e.g. jetclust, or python -m jetclust)")
    sys.exit(main(sys.argv[1:]))
