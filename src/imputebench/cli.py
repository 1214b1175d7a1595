"""Command-line interface: gen, mask, impute, bench, and report subcommands.

Exit codes: 0 on success, 2 on configuration or input errors, 3 when the
benchmark finished but had to drop groups or record method failures.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .core import Mask, MaskedDataset, SeedSpec, missing_fraction
from .datagen import LfmSpec, parse_distribution, sample_lfm
from .featurize import SingularSystemError
from .imputers import METHOD_DEFAULTS, METHOD_TAGS, make_imputer
from .missingness import PATTERN_DEFAULTS, PATTERN_TAGS, PatternSpec, generate


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected lo:hi, got {text!r}"
        ) from None


def _parse_cols(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated column indices, got {text!r}"
        ) from None


def _pattern_flag(key: str, default) -> dict:
    """How a ``mask`` flag parses, read off the pattern parameter's default."""
    if key == "target_cols":
        return {"type": _parse_cols, "metavar": "J1,J2,..."}
    if isinstance(default, tuple):
        return {"type": _parse_range, "metavar": "LO:HI"}
    if isinstance(default, bool):
        return {"action": "store_const", "const": True}
    return {"type": type(default)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imputebench",
        description="Masked-matrix imputation benchmark toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="sample a low-rank synthetic dataset to CSV")
    gen.add_argument("--rows", type=int, required=True)
    gen.add_argument("--cols", type=int, required=True)
    gen.add_argument("--rank", type=int, required=True)
    gen.add_argument("--row-dist", default="gaussian",
                     help="e.g. gaussian, laplace:2, student-t:5, "
                          "spike-slab:0.3:1, dirichlet:0.5")
    gen.add_argument("--col-dist", default="gaussian")
    gen.add_argument("--noise-scale", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True, help="output data CSV path")

    mask = sub.add_parser("mask", help="generate a missingness mask for a data CSV")
    mask.add_argument("--data", required=True, help="input data CSV (fully observed)")
    mask.add_argument("--pattern", required=True, choices=PATTERN_TAGS)
    mask.add_argument("--seed", type=int, default=42)
    mask.add_argument("--out", required=True, help="output mask CSV path")
    mask.add_argument("--sidecar", default=None,
                      help="parameters JSON path (default: <out>.json)")
    hp = mask.add_argument_group("pattern hyperparameters (pattern-specific)")
    first_seen: dict = {}
    for params in PATTERN_DEFAULTS.values():
        for key, default in params.items():
            first_seen.setdefault(key, default)
    for key, default in first_seen.items():
        hp.add_argument("--" + key.replace("_", "-"), **_pattern_flag(key, default))

    imp = sub.add_parser("impute", help="complete a data CSV with one method")
    imp.add_argument("--data", required=True,
                     help="data CSV; empty cells mark missing entries")
    imp.add_argument("--mask", default=None,
                     help="optional mask CSV; defaults to the data's empty cells")
    imp.add_argument("--method", required=True, choices=METHOD_TAGS)
    imp.add_argument("--out", required=True, help="completed CSV path")
    imp.add_argument("--diagnostics", default=None,
                     help="diagnostics JSON path (default: <out>.json)")
    imp.add_argument("--seed", type=int, default=0)
    imp.add_argument("--k", type=int, default=None, help="knn neighbor count")
    imp.add_argument("--lambda", type=float, default=None, dest="lam",
                     help="soft-impute shrinkage")
    imp.add_argument("--max-iter", type=int, default=None, dest="max_iter")
    imp.add_argument("--tol", type=float, default=None)
    imp.add_argument("--ridge-lambda", type=float, default=None, dest="ridge_lambda")
    imp.add_argument("--base-a", default=None, dest="base_a", choices=METHOD_TAGS)
    imp.add_argument("--base-b", default=None, dest="base_b", choices=METHOD_TAGS)
    imp.add_argument("--perms", type=int, default=None, dest="n_perms")

    bch = sub.add_parser("bench", help="run the evaluation grid")
    bch.add_argument("--datasets", required=True,
                     help="directory of CSVs or a JSON manifest")
    bch.add_argument("--patterns", default="all",
                     help="comma-separated pattern tags, or 'all'")
    bch.add_argument("--methods", default="col-mean,knn,soft-impute,ice",
                     help="comma-separated method tags")
    bch.add_argument("--seeds", type=int, default=5, help="replicates per group")
    bch.add_argument("--seed", type=int, default=0, help="run seed")
    bch.add_argument("--jobs", type=int, default=1)
    bch.add_argument("--out", required=True, help="output directory")
    bch.add_argument("--adaptive-proportions", action="store_true")
    bch.add_argument("--temperature", type=float, default=1.0,
                     help="softmax temperature for the proportion trajectory")

    rep = sub.add_parser("report", help="re-render a report.json")
    rep.add_argument("--report", required=True, dest="report_path")
    rep.add_argument("--out", default=None, help="write the table CSV here")

    return parser


def _given(args, defaults: dict[str, dict]) -> dict:
    """The parameters of the defaults table set on the command line; one
    without a flag counts as not set."""
    return {
        key: getattr(args, key)
        for params in defaults.values()
        for key in params
        if getattr(args, key, None) is not None
    }


def _cmd_gen(args) -> int:
    spec = LfmSpec(
        m=args.rows,
        n=args.cols,
        k=args.rank,
        row_dist=parse_distribution(args.row_dist),
        col_dist=parse_distribution(args.col_dist),
        noise_scale=args.noise_scale,
    )
    matrix = sample_lfm(spec, SeedSpec(args.seed, "gen"))
    bench_mod.save_csv(matrix.values, args.out)
    print(f"wrote {args.rows}x{args.cols} rank-{args.rank} dataset to {args.out}")
    return 0


def _cmd_mask(args) -> int:
    record = bench_mod.load_csv(args.data)
    overrides = _given(args, PATTERN_DEFAULTS)
    spec = PatternSpec(args.pattern, SeedSpec(args.seed, args.pattern), overrides)
    bench_mod.refuse_oversize({record.name: record.matrix.shape},
                              [(args.pattern, spec.params)], [])
    mask = generate(spec, record.matrix)
    bench_mod.save_mask_csv(mask, args.out)
    sidecar = Path(args.sidecar) if args.sidecar else Path(str(args.out) + ".json")
    sidecar.write_text(
        json.dumps(
            {
                "pattern": args.pattern,
                "seed": args.seed,
                "data": str(args.data),
                "shape": list(mask.shape),
                "params": spec.params,
                "missing_fraction": missing_fraction(mask),
            },
            sort_keys=True,
            indent=2,
        )
        + "\n"
    )
    print(
        f"wrote mask {mask.shape[0]}x{mask.shape[1]} "
        f"({mask.n_missing} missing) to {args.out}"
    )
    return 0


def _cmd_impute(args) -> int:
    values, columns = bench_mod.read_data_csv(args.data)
    if args.mask:
        mask = bench_mod.load_mask_csv(args.mask)
        if mask.shape != values.shape:
            raise ValueError(
                f"mask shape {mask.shape} does not match data {values.shape}"
            )
        if np.isnan(values)[mask.observed].any():
            raise ValueError("mask marks cells observed that are empty in the data")
    else:
        mask = Mask((~np.isnan(values)).astype(np.uint8))
    ds = MaskedDataset(
        mask=mask, observed=np.where(mask.observed, values, np.nan), truth=None
    )
    imputer = make_imputer(args.method, **_given(args, METHOD_DEFAULTS))
    bench_mod.refuse_oversize({Path(args.data).stem: values.shape}, [], [imputer])
    result = imputer.run(ds, SeedSpec(args.seed, f"impute/{args.method}"))
    bench_mod.save_csv(result.completed.values, args.out, columns)
    diag_path = Path(args.diagnostics) if args.diagnostics else Path(str(args.out) + ".json")
    diag_path.write_text(
        json.dumps(
            {
                "method": args.method,
                "params": imputer.params,
                "seed": args.seed,
                "diagnostics": result.diagnostics,
                "n_imputed": int(mask.n_missing),
            },
            sort_keys=True,
            indent=2,
            default=str,
        )
        + "\n"
    )
    print(f"imputed {mask.n_missing} entries with {args.method} into {args.out}")
    return 0


def _cmd_bench(args) -> int:
    datasets = bench_mod.discover_datasets(args.datasets)
    if args.patterns.strip() == "all":
        patterns = list(PATTERN_TAGS)
    else:
        patterns = [p.strip() for p in args.patterns.split(",") if p.strip()]
    methods = [
        make_imputer(tag.strip())
        for tag in args.methods.split(",")
        if tag.strip()
    ]
    report = bench_mod.run_benchmark(
        datasets,
        patterns,
        methods,
        n_seeds=args.seeds,
        seed=args.seed,
        jobs=args.jobs,
        adaptive_proportions=args.adaptive_proportions,
        temperature=args.temperature,
    )
    json_path, csv_path = bench_mod.emit_report(report, args.out)
    for row in bench_mod.render_table(
        report.aggregates, [m.name for m in methods]
    ):
        print("  ".join(f"{cell:<22}" for cell in row).rstrip())
    print(f"wrote {json_path} and {csv_path}")
    failures = [c for c in report.cells if c["error"] is not None]
    if report.dropped_groups or failures:
        print(
            f"partial failure: {len(report.dropped_groups)} dropped groups, "
            f"{len(failures)} failed cells",
            file=sys.stderr,
        )
        return 3
    return 0


def _cmd_report(args) -> int:
    doc = json.loads(Path(args.report_path).read_text())
    try:
        methods = [m["name"] for m in doc["config"]["methods"]]
        rows = bench_mod.render_table(doc["aggregates"], methods)
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"{args.report_path}: not a bench report with config.methods and "
            f"aggregates ({type(exc).__name__}: {exc})"
        ) from exc
    for row in rows:
        print("  ".join(f"{cell:<22}" for cell in row).rstrip())
    if args.out:
        with Path(args.out).open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "mask": _cmd_mask,
    "impute": _cmd_impute,
    "bench": _cmd_bench,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # A LinAlgError is a ValueError, but a failed factorization is a fault in
    # the method, not in the configuration; a singular ridge system is the
    # user's penalty setting, not a bug.
    except np.linalg.LinAlgError:
        raise
    except (ValueError, OSError, SingularSystemError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
