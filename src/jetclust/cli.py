"""Command-line interface.

Subcommands: generate, cluster, mle, train, evaluate, compare.  Each
default is declared once, on its flag.  Every parameter can come from a
JSON config file via --config, whose value replaces the default; a flag
given on the command line replaces both, and a file key that names no
flag is a usage error.
The density flags belong to generate alone: a dataset stores the shower
config that generated it, and every other subcommand scores with that.
Every --out is checked before any input is read and written all or
none (`harness.write_all`).
Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .harness import (
    DESK_CONFIG,
    PLANNER_SPEC_KEYS,
    RunResult,
    compare,
    comparison_paths,
    config_hash,
    dumps,
    evaluate,
    generate,
    load_events,
    mcts_config,
    save_weights,
    write_all,
    write_comparison,
)
from .policy import load_weights, train_bc, train_mcts_policy
from .rng import make_rng
from .shower import FourMomentum, ShowerConfig
from .trellis import DEFAULT_N_MAX, exact_mle


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jetclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out, seeded=True):
        p.add_argument("--config", help="JSON file with defaults for any flag")
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="base random seed")
        p.add_argument("--out", default=out, help="output path")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("generate", help="simulate a dataset of events")
    common(p, "events.jsonl")
    p.add_argument("--n-events", dest="n_events", type=int, default=100)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=DESK_CONFIG.lam)
    p.add_argument("--t-cut", dest="t_cut", type=float, default=DESK_CONFIG.t_cut)
    p.add_argument("--root", dest="root", type=float, nargs=4, default=DESK_CONFIG.root.as_tuple(),
                   metavar=("E", "PX", "PY", "PZ"))
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("cluster", help="run one planner over a dataset")
    common(p, None)
    _planner_flags(p)
    p.add_argument("--in", dest="infile")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("mle", help="exact maximum-likelihood trees for small events")
    common(p, None, seeded=False)
    p.add_argument("--in", dest="infile")
    p.add_argument("--max-n", dest="max_n", type=int, default=10)
    p.set_defaults(func=_cmd_mle)

    p = sub.add_parser("train", help="train a policy (bc, mle-bc, or mcts)")
    common(p, "weights.bin")
    p.add_argument("--in", dest="infile")
    p.add_argument("--mode", choices=["bc", "mle-bc", "mcts"], default="bc")
    p.add_argument("--steps", type=int, default=20000)
    p.add_argument("--lr", type=float, default=0.03)
    p.add_argument("--no-ps-feature", dest="no_ps_feature", action="store_true")
    p.add_argument("--init-weights", dest="init_weights",
                   help="pretrained weights to continue from (--mode mcts only)")
    p.add_argument("--b", type=int)
    p.add_argument("--n-mcts", dest="n_mcts", type=int)
    p.add_argument("--c", type=float)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="multi-seed planner evaluation")
    common(p, "result.json")
    _planner_flags(p)
    p.add_argument("--in", dest="infile")
    p.add_argument("--n-eval", dest="n_eval", type=int)
    p.add_argument("--seeds", type=int, default=1, help="number of seeds, starting at --seed")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="tabulate and export several result files")
    common(p, "comparison", seeded=False)
    p.add_argument("results", nargs="*")
    p.set_defaults(func=_cmd_compare)

    return parser


def _planner_flags(p) -> None:
    # No default here: a planner spec holds only the keys given, and a
    # result file stores it as its params.
    p.add_argument("--algo", choices=["random", "greedy", "beam", "mcts", "policy"])
    p.add_argument("--b", type=int, help="beam width / MCTS beam-init width (0: no beam seeding)")
    p.add_argument("--n-mcts", dest="n_mcts", type=int)
    p.add_argument("--c", type=float)
    p.add_argument("--prior", choices=["random", "proportional-to-ps", "nn"])
    p.add_argument("--weights")
    p.add_argument("--final-rule", dest="final_rule", choices=["max-rollout", "puct-visits"])
    p.add_argument("--rollout-rule", dest="rollout_rule", choices=["puct", "policy-sample"])


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _config_flags(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The flags a config file may set, by the key it uses (the flag's
    dest): every flag of every subcommand, so one file can serve several
    subcommands."""
    flags = {}
    for p in _subcommands(parser).values():
        for a in p._actions:
            if a.option_strings and a.dest not in ("help", "config"):
                flags.setdefault(a.dest, a)
    return flags


def _parse(flag: argparse.Action, value):
    """What the flag stores for a config-file value, parsed as the flag
    would parse it on the command line: a switch takes a JSON bool, a flag
    of nargs k a list of k values, and each value must pass the flag's
    type and choices as its string would.  ValueError if it would not."""
    if flag.nargs == 0 and isinstance(value, bool):
        return value
    if flag.nargs and isinstance(value, list) and len(value) == flag.nargs:
        return [_parse_one(flag, v) for v in value]
    if flag.nargs is None:
        return _parse_one(flag, value)
    raise ValueError(value)


def _parse_one(flag: argparse.Action, value):
    if isinstance(value, bool) or not isinstance(value, str if flag.type is None else (str, int, float)):
        raise ValueError(value)
    value = value if flag.type is None else flag.type(str(value))
    if flag.choices is not None and value not in flag.choices:
        raise ValueError(value)
    return value


def _read_config(path: str, flags: dict[str, argparse.Action]) -> dict:
    """The values a JSON config file gives, by flag dest, each parsed as
    its flag would parse it; UsageError naming the file, and the key where
    there is one, for a missing file, a file that is not UTF-8 JSON or not
    an object, a key that names no flag, or a value the flag would not
    accept."""
    path = Path(path)
    if not path.exists():
        raise UsageError(f"config file not found: {path}")
    with open(path, encoding="utf-8") as f:
        try:
            cfg = json.load(f)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise UsageError(f"config file {path} is not UTF-8 JSON: {exc}") from None
    if not isinstance(cfg, dict):
        raise UsageError(f"config file {path} is not a JSON object")
    unknown = sorted(set(cfg) - set(flags))
    if unknown:
        raise UsageError(f"config file {path} has keys that name no flag: {', '.join(unknown)}")
    values = {}
    for key, value in cfg.items():
        try:
            values[key] = _parse(flags[key], value)
        except ValueError:
            raise UsageError(f"config file {path}: {key}={json.dumps(value)} is not a "
                             f"valid value for {flags[key].option_strings[0]}") from None
    return values


def _planner_spec(args) -> dict:
    if args.algo is None:
        raise UsageError("--algo is required")
    return {key: getattr(args, key) for key in PLANNER_SPEC_KEYS if getattr(args, key) is not None}


def _load_dataset(args) -> tuple[list, ShowerConfig]:
    """The --in events and the shower config they store, which is the
    density every score uses."""
    if not args.infile:
        raise UsageError("--in dataset file is required")
    events = load_events(args.infile)
    if not events:
        raise ValueError(f"dataset {args.infile} is empty")
    return events, events[0].config


def _cmd_generate(args) -> int:
    if args.n_events < 1:
        raise UsageError(f"--n-events must be >= 1, got {args.n_events}")
    config = ShowerConfig(lam=args.lam, t_cut=args.t_cut, root=FourMomentum(*args.root), rng_seed=args.seed)
    events = generate(config, args.n_events, args.out)
    if not args.quiet:
        mean_n = sum(e.n_leaves for e in events) / len(events)
        print(f"wrote {len(events)} events to {args.out} (mean leaves {mean_n:.2f}, "
              f"config {config_hash(config)})")
    return 0


def _cmd_cluster(args) -> int:
    spec = _planner_spec(args)
    events, _ = _load_dataset(args)
    result = evaluate(events, spec, n_eval=len(events), seeds=[args.seed])
    if args.out is not None:
        write_all({args.out: [(result.to_json() + "\n").encode()]}, "per-event results")
    print(f"{result.planner}: mean LL {result.mean_ll:.4f} over {len(events)} events "
          f"(mean cost {result.mean_cost:.1f})")
    if args.out is not None and not args.quiet:
        print(f"wrote per-event results to {args.out}")
    return 0


def _cmd_mle(args) -> int:
    max_n = args.max_n
    if not 2 <= max_n <= DEFAULT_N_MAX:
        # exact_mle costs O(3^n); its own guard stops at DEFAULT_N_MAX.
        raise UsageError(f"--max-n must be in 2..{DEFAULT_N_MAX}, got {max_n}")
    events, config = _load_dataset(args)
    rows = []
    for event in events:
        if event.n_leaves > max_n:
            if not args.quiet:
                print(f"skipping event {event.event_id}: {event.n_leaves} leaves > max-n {max_n}")
            continue
        ll, _ = exact_mle(event.leaves, config)
        rows.append({"id": event.event_id, "n_leaves": event.n_leaves, "mle_ll": ll})
        if not args.quiet:
            print(f"event {event.event_id}: n={event.n_leaves} MLE LL {ll:.4f}")
    if args.out is not None:
        write_all({args.out: [(dumps({"per_event": rows}) + "\n").encode()]}, "MLE results")
    if rows:
        mean = sum(r["mle_ll"] for r in rows) / len(rows)
        print(f"mean MLE LL over {len(rows)} events: {mean:.4f}")
    return 0


def _cmd_train(args) -> int:
    if args.steps < 1:
        raise UsageError(f"--steps must be >= 1, got {args.steps}")
    if not (math.isfinite(args.lr) and args.lr > 0.0):
        raise UsageError(f"--lr must be finite and > 0, got {args.lr}")
    if args.init_weights and args.mode != "mcts":
        raise UsageError(f"--init-weights continues --mode mcts only, not --mode {args.mode}")
    events, config = _load_dataset(args)
    include_ps = not args.no_ps_feature
    rng = make_rng(args.seed, 1_000_003)
    if args.mode in ("bc", "mle-bc"):
        demonstrator = "truth" if args.mode == "bc" else "mle-for-small-n"
        weights, losses = train_bc(events, config, args.steps, args.lr, rng,
                                   demonstrator=demonstrator, include_ps=include_ps)
    else:
        init = None
        if args.init_weights:
            # The network continues from the file, so it reads what the file's network reads.
            init, header = load_weights(args.init_weights)
            if args.no_ps_feature and header["include_ps"]:
                raise UsageError(f"--no-ps-feature, but --init-weights {args.init_weights} "
                                 f"holds a network that reads the p_s feature")
            include_ps = header["include_ps"]
        cfg = mcts_config({k: getattr(args, k) for k in ("c", "n_mcts", "b") if getattr(args, k) is not None})
        weights, losses = train_mcts_policy(events, cfg, config, args.steps, args.lr, rng,
                                            init=init, include_ps=include_ps)
    save_weights(args.out, weights, config_hash=config_hash(config))
    if not args.quiet:
        tail = sum(losses[-100:]) / max(len(losses[-100:]), 1)
        print(f"trained {args.mode} for {len(losses)} steps; mean loss of last 100: {tail:.4f}")
        print(f"wrote weights to {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    if args.seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {args.seeds}")
    if args.n_eval is not None and args.n_eval < 1:
        raise UsageError(f"--n-eval must be >= 1, got {args.n_eval}")
    spec = _planner_spec(args)
    events, _ = _load_dataset(args)
    result = evaluate(events, spec,
                      n_eval=len(events) if args.n_eval is None else args.n_eval,
                      seeds=list(range(args.seed, args.seed + args.seeds)))
    write_all({args.out: [(result.to_json() + "\n").encode()]}, "run result")
    print(f"{result.planner}: mean LL {result.mean_ll:.4f} +- {result.sem_ll:.4f} "
          f"({args.seeds} seeds, mean cost {result.mean_cost:.1f})")
    if not args.quiet:
        print(f"wrote run result to {args.out}")
    return 0


def _load_result(path: str) -> RunResult:
    try:
        return RunResult.from_json(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_compare(args) -> int:
    if len(args.results) < 2:
        raise UsageError("compare needs at least 2 result files")
    comparison = compare([_load_result(p) for p in args.results])
    written = write_comparison(comparison, args.out)
    if not args.quiet:
        for row in comparison["table"]:
            print(f"{row['planner']:40s} mean LL {row['mean_ll']:10.4f} "
                  f"+- {row['sem_ll']:.4f}  cost {row['mean_cost']:12.1f}")
        print("wrote " + ", ".join(str(p) for p in written))
    return 0


def _name_max(directory: str) -> int:
    """The longest file name, in bytes, that the directory allows; 255
    where the system does not say."""
    try:
        name_max = os.pathconf(directory, "PC_NAME_MAX")
    except (OSError, ValueError):
        return 255
    return name_max if name_max > 0 else 255


def _check_out(args) -> None:
    """UsageError unless --out names files that can be made: its final
    component is a file name, its directory exists, and every name the
    command derives from it fits the directory's NAME_MAX.  Checked before
    any input is read, so a bad --out costs no work."""
    directory, name = os.path.split(args.out)
    directory = directory or "."
    if name in ("", ".", ".."):
        raise UsageError(f"--out must end in a file name, got {args.out!r}")
    if not os.path.isdir(directory):
        raise UsageError(f"--out {args.out!r} is in a directory that does not exist")
    names = [p.name for p in comparison_paths(name)] if args.command == "compare" else [name]
    longest = max(len(os.fsencode(n)) for n in names)
    name_max = _name_max(directory)
    if longest > name_max:
        raise UsageError(f"--out {args.out!r} makes a file name of {longest} bytes; "
                         f"its directory allows {name_max}")


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        if args.config:
            # The values of the subcommand's own flags become its defaults,
            # so a flag given on the command line still beats them.
            sub = _subcommands(parser)[args.command]
            values = _read_config(args.config, _config_flags(parser))
            sub.set_defaults(**{key: value for key, value in values.items() if key in vars(args)})
            args = parser.parse_args(argv)
        if "seed" in vars(args) and args.seed < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        if args.out is not None:
            _check_out(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
