"""Command-line interface.

Subcommands: generate, cluster, mle, train, evaluate, compare.  Every
parameter can come from a JSON config file via --config; explicit flags
win over the file, and a file key that names no flag is a usage error.
The density flags belong to generate alone: a dataset stores the shower
config that generated it, and every other subcommand scores with that.
Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

import argparse
import json
import math
import sys
from pathlib import Path

from .harness import (
    DESK_CONFIG,
    RunResult,
    compare,
    config_hash,
    dumps,
    evaluate,
    generate,
    load_events,
    mcts_config,
    write_comparison,
)
from .policy import load_weights, save_weights, train_bc, train_mcts_policy
from .rng import make_rng
from .shower import FourMomentum, ShowerConfig
from .trellis import DEFAULT_N_MAX, exact_mle


class UsageError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jetclust", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--seed", type=int, default=None, help="base random seed")
        p.add_argument("--out", default=None, help="output path")
        p.add_argument("--quiet", action="store_true", default=None)

    p = sub.add_parser("generate", help="simulate a dataset of events")
    common(p)
    p.add_argument("--n-events", dest="n_events", type=int, default=None)
    p.add_argument("--lam", "--lambda", dest="lam", type=float, default=None)
    p.add_argument("--t-cut", dest="t_cut", type=float, default=None)
    p.add_argument("--root", dest="root", type=float, nargs=4, default=None,
                   metavar=("E", "PX", "PY", "PZ"))
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("cluster", help="run one planner over a dataset")
    common(p)
    _planner_flags(p)
    p.add_argument("--in", dest="infile", default=None)
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("mle", help="exact maximum-likelihood trees for small events")
    common(p)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.set_defaults(func=_cmd_mle)

    p = sub.add_parser("train", help="train a policy (bc, mle-bc, or mcts)")
    common(p)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--mode", choices=["bc", "mle-bc", "mcts"], default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.add_argument("--no-ps-feature", dest="no_ps_feature", action="store_true", default=None)
    p.add_argument("--init-weights", dest="init_weights", default=None,
                   help="pretrained weights to continue from (mcts mode)")
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--n-mcts", dest="n_mcts", type=int, default=None)
    p.add_argument("--c", type=float, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="multi-seed planner evaluation")
    common(p)
    _planner_flags(p)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--n-eval", dest="n_eval", type=int, default=None)
    p.add_argument("--seeds", type=int, default=None, help="number of seeds, starting at --seed")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="tabulate and export several result files")
    common(p)
    p.add_argument("results", nargs="*", default=None)
    p.set_defaults(func=_cmd_compare)

    return parser


def _planner_flags(p) -> None:
    p.add_argument("--algo", choices=["random", "greedy", "beam", "mcts", "policy"], default=None)
    p.add_argument("--b", type=int, default=None,
                   help="beam width / MCTS beam-init width (0: no beam seeding)")
    p.add_argument("--n-mcts", dest="n_mcts", type=int, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--prior", choices=["random", "proportional-to-ps", "nn"], default=None)
    p.add_argument("--weights", default=None)
    p.add_argument("--final-rule", dest="final_rule",
                   choices=["max-rollout", "puct-visits"], default=None)
    p.add_argument("--rollout-rule", dest="rollout_rule",
                   choices=["puct", "policy-sample"], default=None)


def _config_flags(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """The flags a config file may set, by the key it uses (the flag's
    dest): every flag of every subcommand, so one file can serve several
    subcommands."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {}
    for p in sub.choices.values():
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


class _Options:
    """Flag > config-file > default resolution."""

    def __init__(self, args, config_flags: dict[str, argparse.Action]):
        self.args = args
        self.cfg = {}
        if getattr(args, "config", None):
            path = Path(args.config)
            if not path.exists():
                raise UsageError(f"config file not found: {path}")
            with open(path) as f:
                self.cfg = json.load(f)
            if not isinstance(self.cfg, dict):
                raise UsageError(f"config file {path} is not a JSON object")
            unknown = sorted(set(self.cfg) - set(config_flags))
            if unknown:
                raise UsageError(f"config file {path} has keys that name no flag: "
                                 f"{', '.join(unknown)}")
            for key, value in self.cfg.items():
                flag = config_flags[key]
                try:
                    self.cfg[key] = _parse(flag, value)
                except ValueError:
                    raise UsageError(f"config file {path}: {key}={json.dumps(value)} is not a "
                                     f"valid value for {flag.option_strings[0]}") from None

    def get(self, key, default=None):
        value = getattr(self.args, key, None)
        if value is not None:
            return value
        return self.cfg.get(key, default)


def _shower_config(opt: _Options) -> ShowerConfig:
    return ShowerConfig(lam=opt.get("lam", DESK_CONFIG.lam), t_cut=opt.get("t_cut", DESK_CONFIG.t_cut),
                        root=FourMomentum(*opt.get("root", DESK_CONFIG.root.as_tuple())),
                        rng_seed=opt.get("seed", DESK_CONFIG.rng_seed))


def _planner_spec(opt: _Options) -> dict:
    algo = opt.get("algo")
    if algo is None:
        raise UsageError("--algo is required")
    spec = {"algo": algo}
    for key in ("b", "n_mcts", "c", "prior", "weights", "final_rule", "rollout_rule"):
        value = opt.get(key)
        if value is not None:
            spec[key] = value
    return spec


def _load_dataset(opt: _Options) -> tuple[list, ShowerConfig]:
    """The --in events and the shower config they store, which is the
    density every score uses."""
    infile = opt.get("infile")
    if not infile:
        raise UsageError("--in dataset file is required")
    events = load_events(infile)
    if not events:
        raise ValueError(f"dataset {infile} is empty")
    return events, events[0].config


def _cmd_generate(opt: _Options) -> int:
    config = _shower_config(opt)
    n_events = opt.get("n_events", 100)
    if n_events < 1:
        raise UsageError(f"--n-events must be >= 1, got {n_events}")
    out = opt.get("out", "events.jsonl")
    events = generate(config, n_events, out)
    if not opt.get("quiet"):
        mean_n = sum(e.n_leaves for e in events) / len(events)
        print(f"wrote {len(events)} events to {out} (mean leaves {mean_n:.2f}, "
              f"config {config_hash(config)})")
    return 0


def _cmd_cluster(opt: _Options) -> int:
    events, config = _load_dataset(opt)
    result = evaluate(events, _planner_spec(opt), config, n_eval=len(events), seeds=[opt.get("seed", 0)])
    print(f"{result.planner}: mean LL {result.mean_ll:.4f} over {len(events)} events "
          f"(mean cost {result.mean_cost:.1f})")
    out = opt.get("out")
    if out:
        Path(out).write_text(result.to_json() + "\n")
        if not opt.get("quiet"):
            print(f"wrote per-event results to {out}")
    return 0


def _cmd_mle(opt: _Options) -> int:
    max_n = opt.get("max_n", 10)
    if not 2 <= max_n <= DEFAULT_N_MAX:
        # exact_mle costs O(3^n); its own guard stops at DEFAULT_N_MAX.
        raise UsageError(f"--max-n must be in 2..{DEFAULT_N_MAX}, got {max_n}")
    events, config = _load_dataset(opt)
    rows = []
    quiet = opt.get("quiet")
    for event in events:
        if event.n_leaves > max_n:
            if not quiet:
                print(f"skipping event {event.event_id}: {event.n_leaves} leaves > max-n {max_n}")
            continue
        ll, _ = exact_mle(event.leaves, config)
        rows.append({"id": event.event_id, "n_leaves": event.n_leaves, "mle_ll": ll})
        if not quiet:
            print(f"event {event.event_id}: n={event.n_leaves} MLE LL {ll:.4f}")
    if rows:
        mean = sum(r["mle_ll"] for r in rows) / len(rows)
        print(f"mean MLE LL over {len(rows)} events: {mean:.4f}")
    out = opt.get("out")
    if out:
        Path(out).write_text(dumps({"per_event": rows}) + "\n")
    return 0


def _cmd_train(opt: _Options) -> int:
    steps = opt.get("steps", 20000)
    if steps < 1:
        raise UsageError(f"--steps must be >= 1, got {steps}")
    lr = opt.get("lr", 0.03)
    if not (math.isfinite(lr) and lr > 0.0):
        raise UsageError(f"--lr must be finite and > 0, got {lr}")
    events, config = _load_dataset(opt)
    mode = opt.get("mode", "bc")
    include_ps = not opt.get("no_ps_feature")
    rng = make_rng(opt.get("seed", 0), 1_000_003)
    if mode in ("bc", "mle-bc"):
        demonstrator = "truth" if mode == "bc" else "mle-for-small-n"
        weights, losses = train_bc(events, config, steps, lr, rng,
                                   demonstrator=demonstrator, include_ps=include_ps)
    else:
        init = None
        init_path = opt.get("init_weights")
        if init_path:
            init, _ = load_weights(init_path)
        cfg = mcts_config({k: opt.get(k) for k in ("c", "n_mcts", "b") if opt.get(k) is not None})
        weights, losses = train_mcts_policy(events, cfg, config, steps, lr, rng,
                                            init=init, include_ps=include_ps)
    out = opt.get("out", "weights.bin")
    save_weights(out, weights, config_hash=config_hash(config))
    if not opt.get("quiet"):
        tail = sum(losses[-100:]) / max(len(losses[-100:]), 1)
        print(f"trained {mode} for {len(losses)} steps; mean loss of last 100: {tail:.4f}")
        print(f"wrote weights to {out}")
    return 0


def _cmd_evaluate(opt: _Options) -> int:
    n_seeds = opt.get("seeds", 1)
    if n_seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {n_seeds}")
    n_eval = opt.get("n_eval")
    if n_eval is not None and n_eval < 1:
        raise UsageError(f"--n-eval must be >= 1, got {n_eval}")
    events, config = _load_dataset(opt)
    base = opt.get("seed", 0)
    result = evaluate(events, _planner_spec(opt), config, n_eval=len(events) if n_eval is None else n_eval,
                      seeds=list(range(base, base + n_seeds)))
    print(f"{result.planner}: mean LL {result.mean_ll:.4f} +- {result.sem_ll:.4f} "
          f"({n_seeds} seeds, mean cost {result.mean_cost:.1f})")
    out = opt.get("out", "result.json")
    Path(out).write_text(result.to_json() + "\n")
    if not opt.get("quiet"):
        print(f"wrote run result to {out}")
    return 0


def _load_result(path: str) -> RunResult:
    try:
        return RunResult.from_json(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_compare(opt: _Options) -> int:
    paths = opt.get("results") or []
    if len(paths) < 2:
        raise UsageError("compare needs at least 2 result files")
    results = [_load_result(p) for p in paths]
    comparison = compare(results)
    if not opt.get("quiet"):
        for row in comparison["table"]:
            print(f"{row['planner']:40s} mean LL {row['mean_ll']:10.4f} "
                  f"+- {row['sem_ll']:.4f}  cost {row['mean_cost']:12.1f}")
    out = opt.get("out", "comparison")
    written = write_comparison(comparison, out)
    if not opt.get("quiet"):
        print("wrote " + ", ".join(str(p) for p in written))
    return 0


def cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        opt = _Options(args, _config_flags(parser))
        return args.func(opt)
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
