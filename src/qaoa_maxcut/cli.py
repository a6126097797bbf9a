"""Command-line harness: instance generation, experiment runs, CSV emitters,
and the symmetry verification suite."""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .experiment import (
    ConfigError,
    ExperimentConfig,
    InstanceSpec,
    ResultSet,
    emit_alpha_table,
    emit_landscape,
    emit_params_trace,
    run_experiment,
)
from .graphs import read_edge_list, write_edge_list
from .symmetry import DEVIATION_TOLERANCE, run_symmetry_suite


def _check_out_file(out: str | None) -> None:
    """Fail before any work when --out cannot be written as a file."""
    if out is None:
        return
    path = Path(out)
    if path.is_dir():
        raise ConfigError(f"--out {out}: is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"--out {out}: no directory {path.parent}")


def _write_or_print(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _apply_overrides(cfg: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    overrides = {"max_depth": args.max_depth, "trials": args.trials, "rng_seed": args.seed}
    return replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _cmd_gen(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        # Through the config, whose check rejects instances that now share an id.
        cfg = replace(cfg, instances=tuple(replace(s, seed=args.seed) for s in cfg.instances))
    # Every graph first, as `run_experiment` does: a failure writes no file.
    graphs = [(spec, spec.build()) for spec in cfg.instances]
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for spec, g in graphs:
        path = out_dir / f"{spec.instance_id}.edges"
        write_edge_list(g, path)
        print(f"wrote {path} (n={g.n}, m={g.m})")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = _apply_overrides(ExperimentConfig.from_file(args.config), args)
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {args.out}: {exc}") from None
    rs = run_experiment(cfg)
    results_path = out_dir / "results.json"
    rs.save(results_path)
    print(f"wrote {results_path} ({len(rs.records)} records)")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    _check_out_file(args.out)
    rs = ResultSet.load(args.results)
    _write_or_print(emit_alpha_table(rs), args.out)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    _check_out_file(args.out)
    rs = ResultSet.load(args.results)
    _write_or_print(emit_params_trace(rs, args.instance, args.strategy), args.out)
    return 0


def _cmd_landscape(args: argparse.Namespace) -> int:
    _check_out_file(args.out)
    if args.edges is not None:
        generator = ("kind", "n", "degree", "prob", "seed")
        stray = [f"--{f}" for f in generator if getattr(args, f) is not None]
        if stray:
            raise ConfigError(f"--edges takes no generator flags, got {' '.join(stray)}")
        g = read_edge_list(args.edges)
    else:
        if args.kind is None or args.n is None:
            raise ConfigError("landscape needs --edges FILE or --kind with --n")
        spec = InstanceSpec(
            kind=args.kind,
            n=args.n,
            seed=args.seed if args.seed is not None else 0,
            degree=args.degree,
            prob=args.prob,
        )
        g = spec.build()
    _write_or_print(emit_landscape(g, args.resolution), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_out_file(args.out)
    seed = args.seed if args.seed is not None else 0
    reports = run_symmetry_suite(samples=args.samples, seed=seed, max_p=args.max_p)
    failed = False
    for r in reports:
        status = "ok" if r.max_abs_deviation <= DEVIATION_TOLERANCE else "FAIL"
        print(
            f"{r.transform}: max deviation {r.max_abs_deviation:.3e} "
            f"over {r.samples} samples [{status}]"
        )
        failed = failed or status == "FAIL"
    if args.out is not None:
        meta = {"suite": "symmetry", "samples": args.samples, "seed": seed}
        ResultSet(meta=meta, symmetry_reports=reports).save(args.out)
        print(f"wrote {args.out}")
    if failed:
        print(f"verification FAILED (tolerance {DEVIATION_TOLERANCE})", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qaoa-maxcut",
        description="Max-Cut QAOA experiment harness: seeded instances, "
        "initialization strategies, and symmetry verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instances and write edge-list files")
    p.add_argument("--config", required=True, help="experiment config (JSON)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, help="override every instance seed")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("run", help="run the experiment in a config file")
    p.add_argument("--config", required=True, help="experiment config (JSON)")
    p.add_argument("--out", required=True, help="output directory for results.json")
    p.add_argument("--max-depth", type=int, help="override config max_depth")
    p.add_argument("--trials", type=int, help="override config trials")
    p.add_argument("--seed", type=int, help="override config rng_seed")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("table", help="emit the approximation-ratio CSV")
    p.add_argument("--results", required=True, help="results.json from a run")
    p.add_argument("--out", help="output CSV file (default: stdout)")
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("trace", help="emit the optimal-parameter trace CSV")
    p.add_argument("--results", required=True, help="results.json from a run")
    p.add_argument("--instance", required=True, help="instance id, e.g. reg3-n10-s7")
    p.add_argument("--strategy", required=True, help="strategy name")
    p.add_argument("--out", help="output CSV file (default: stdout)")
    p.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("landscape", help="emit the depth-1 landscape grid CSV")
    p.add_argument("--edges", help="edge-list file to load")
    p.add_argument("--kind", choices=["regular", "erdos_renyi"], help="generate instead")
    p.add_argument("--n", type=int, help="vertex count for --kind")
    p.add_argument("--degree", type=int, help="degree for --kind regular")
    p.add_argument("--prob", type=float, help="edge probability for --kind erdos_renyi")
    p.add_argument("--seed", type=int, help="generator seed for --kind")
    p.add_argument("--resolution", type=int, default=64, help="grid points per axis")
    p.add_argument("--out", help="output CSV file (default: stdout)")
    p.set_defaults(fn=_cmd_landscape)

    p = sub.add_parser("verify", help="run the landscape symmetry suite")
    p.add_argument("--samples", type=int, default=100, help="random draws per check")
    p.add_argument("--seed", type=int, help="suite seed (default 0)")
    p.add_argument("--max-p", type=int, default=3, help="largest circuit depth drawn")
    p.add_argument("--out", help="write reports as results JSON")
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
