"""Command-line front end: emit plans and coherences, run checks and sweeps.

Every subcommand reads a flat `key = value` config file. `--seed` and
`--out` override the config's master_seed and out keys; exit status is 0 on
success, 2 for configuration problems, 3 for I/O and file-format problems.
"""

from __future__ import annotations

import argparse
import sys

from .coherence import save_coherence_csv
from .harness import (
    ConfigError,
    ExperimentConfig,
    _plan_for,
    aggregate_geometric,
    build_problem,
    compare_schemes,
    parse_config_file,
    run_denoise_sweep,
    run_single_trial,
    trial_streams,
    write_manifest,
    write_records_csv,
)
from .priors import EnumerationBudgetError, _sparse_support_size, difference_union
from .recovery import rip_check
from .sampling import SampledOperator, draw_sample, save_plan_csv

__all__ = ["main"]


def _require_out(config: ExperimentConfig) -> str:
    config.require("out")
    return config.out


def _cmd_coherence(config, args) -> int:
    out = _require_out(config)
    problem = build_problem(config)
    save_coherence_csv(problem.alpha, problem.coherence_method, out)
    write_manifest(config, out)
    print(f"wrote coherence vector for n={problem.n} to {out}")
    return 0


def _cmd_plan(config, args) -> int:
    out = _require_out(config)
    if config.scheme == "both":
        raise ConfigError("plan needs one concrete scheme")
    problem = build_problem(config)
    plan = _plan_for(problem, config, config.scheme)
    save_plan_csv(plan, out)
    write_manifest(config, out)
    print(f"wrote {config.scheme} plan for n={plan.n} to {out}")
    return 0


def _cmd_rip_check(config, args) -> int:
    out = _require_out(config)
    config.require("m")
    if config.scheme == "both":
        raise ConfigError("rip-check needs one concrete scheme")
    if config.prior == "sparse":
        # the size of the sparse difference set follows from (n, k): check it before the coherence build
        _sparse_support_size(config.n, config.sparse_k)
    problem = build_problem(config)
    differences = difference_union(problem.prior)
    plan = _plan_for(problem, config, config.scheme)
    sample = draw_sample(plan, config.m, trial_streams(config.master_seed, 0, 0).draw)
    result = rip_check(SampledOperator(problem.operator, sample), differences)
    lines = ["subspace,deviation"]
    lines += [f"{i},{dev:.17g}" for i, dev in enumerate(result["per_subspace"])]
    with open(out, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    write_manifest(config, out)
    holds = "true" if result["holds"] else "false"
    print(
        f"m={config.m} subspaces={differences.M} "
        f"max_deviation={result['max_deviation']:.6g} holds={holds}"
    )
    return 0


def _cmd_recover(config, args) -> int:
    out = _require_out(config)
    record = run_single_trial(config)
    write_records_csv([record], out)
    write_manifest(config, out)
    print(
        f"m={record.m} sigma={record.sigma:g} rre={record.rre:.6g} "
        f"objective={record.objective:.6g} seed={record.seed}"
    )
    return 0


def _print_cells(aggregated) -> None:
    for scheme, m, sigma in sorted(aggregated):
        cell = aggregated[(scheme, m, sigma)]
        print(
            f"scheme={scheme} m={m} sigma={sigma:g} "
            f"geo_mean_rre={cell['geo_mean_rre']:.6g} trials={cell['trials']}"
        )


def _cmd_denoise_sweep(config, args) -> int:
    records = run_denoise_sweep(config)
    _print_cells(aggregate_geometric(records))
    print(f"wrote {len(records)} records to {config.out}")
    return 0


def _cmd_compare_schemes(config, args) -> int:
    pair = compare_schemes(config)
    aggregated = aggregate_geometric(pair["optimized"] + pair["uniform"])
    _print_cells(aggregated)
    for scheme, m, sigma in sorted(aggregated):
        if scheme != "optimized":
            continue
        uniform = aggregated.get(("uniform", m, sigma))
        if uniform:
            ratio = aggregated[("optimized", m, sigma)]["geo_mean_rre"]
            ratio /= uniform["geo_mean_rre"]
            print(f"m={m} sigma={sigma:g} optimized/uniform={ratio:.6g}")
    print(f"wrote paired records to {config.out}")
    return 0


_COMMANDS = {
    "coherence": (_cmd_coherence, "emit the prior's per-row coherence CSV"),
    "plan": (_cmd_plan, "emit the sampling plan CSV for the configured scheme"),
    "rip-check": (_cmd_rip_check, "check the isometry condition on one drawn sample"),
    "recover": (_cmd_recover, "run a single seeded recovery trial"),
    "denoise-sweep": (_cmd_denoise_sweep, "run the (m, sigma) denoising sweep"),
    "compare-schemes": (_cmd_compare_schemes, "paired optimized-vs-uniform sweep"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vdslab",
        description="variable-density sampling and recovery experiments",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="experiment config file")
        sub.add_argument("--seed", type=int, help="override master_seed")
        sub.add_argument("--out", help="override the out path")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        mapping = parse_config_file(args.config)
        if args.seed is not None:
            mapping["master_seed"] = args.seed
        if args.out is not None:
            mapping["out"] = args.out
        config = ExperimentConfig(mapping)
        return _COMMANDS[args.command][0](config, args)
    except (ConfigError, EnumerationBudgetError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
