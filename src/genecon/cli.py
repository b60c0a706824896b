"""Command-line entry point: analyze, sweep, and simulate subcommands.

Exit codes follow the usual scripting convention: 0 success, 1 runtime
failure, 2 bad usage or invalid inputs. Outputs are byte-identical for the
same inputs, seed, numpy version and LAPACK build. GENECON_THREADS is
accepted for compatibility and ignored; a malformed value exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import SymMatrix, TraitGrid, json_int, json_number, json_numbers, load_grid_json
from .errors import GeneconError
from .estimate import (
    DESIGN_ALIASES,
    RELATEDNESS,
    anova_estimate,
    ingest_gmatrix,
    load_family_csv,
    normalize_design,
)
from .parallel import thread_count
from .report import (
    FigureSpec,
    make_provenance,
    partition_report,
    render_partition_figure,
    render_study_figure,
    study_report,
    write_json,
    write_svg,
)
from .simplicity import MEASURE_ALIASES, measure_from_kind
from .simulate import RNG_DESCRIPTION, SimulationParams, run_study
from .spaces import partition

class UsageError(Exception):
    """Invalid flags or inputs; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Exits 2 on a usage error after one line, ``genecon <cmd>: <message>``; subparsers too."""

    def error(self, message):
        self.exit(2, f"{self.prog}: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="genecon",
        description="Partition genetic covariance eigenstructure and predict selection response.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_inputs(p):
        p.add_argument("--g", metavar="PATH", help="genetic covariance matrix JSON")
        p.add_argument("--data", metavar="PATH", help="family phenotype CSV")
        p.add_argument("--grid", metavar="PATH", required=True, help="trait grid JSON")
        p.add_argument("--design", choices=DESIGN_ALIASES,
                       help="family design when estimating from --data")
        p.add_argument("--measure", choices=MEASURE_ALIASES, default="d1",
                       help="simplicity measure kind (default d1)")
        p.add_argument("--clip-tol", type=float, default=0.0,
                       help="eigenvalue clipping tolerance (default 0)")
        p.add_argument("--dry-run", action="store_true",
                       help="validate configuration without computing")

    analyze = sub.add_parser("analyze", help="partition one matrix at a fixed J")
    add_common_inputs(analyze)
    analyze.add_argument("--J", type=int, required=True, help="model-space dimension")
    analyze.add_argument("--out", metavar="PATH", required=True, help="report JSON output")
    analyze.add_argument("--svg", metavar="PATH", help="figure SVG output")

    sweep = sub.add_parser("sweep", help="partition at every J from 0 to K")
    add_common_inputs(sweep)
    sweep.add_argument("--out-dir", metavar="DIR", required=True,
                       help="directory for per-J report/figure pairs")

    simulate = sub.add_parser("simulate", help="run the replicated estimation study")
    simulate.add_argument("--config", metavar="PATH", required=True,
                          help="study configuration JSON")
    simulate.add_argument("--seed", type=int, help="override config seed")
    simulate.add_argument("--reps", type=int, help="override config replicate count")
    simulate.add_argument("--null-dim", type=int, help="override config nearly-null dimension")
    simulate.add_argument("--out", metavar="PATH", required=True, help="summary JSON output")
    simulate.add_argument("--svg", metavar="PATH", help="study figure SVG output")
    simulate.add_argument("--dry-run", action="store_true",
                          help="validate configuration without computing")
    return parser


def _require_file(path: str | None, flag: str) -> Path:
    if not path:
        raise UsageError(f"missing required input {flag}")
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"{flag}: no such file: {p}")
    return p


def _load_analysis_inputs(args):
    if bool(args.g) == bool(args.data):
        raise UsageError("provide exactly one of --g or --data")
    if not (math.isfinite(args.clip_tol) and args.clip_tol >= 0.0):
        raise UsageError(f"--clip-tol must be finite and nonnegative, got {args.clip_tol}")
    try:
        grid = load_grid_json(_require_file(args.grid, "--grid"))
    except (GeneconError, json.JSONDecodeError) as exc:
        raise UsageError(f"--grid: {args.grid}: {exc}") from exc
    if args.g:
        try:
            g = ingest_gmatrix(_require_file(args.g, "--g"), grid=grid,
                               clip_tolerance=args.clip_tol)
        except (GeneconError, json.JSONDecodeError) as exc:
            raise UsageError(f"--g: {args.g}: {exc}") from exc
        design = None
    else:
        if not args.design:
            raise UsageError("--design is required with --data")
        design = normalize_design(args.design)
        try:
            data = load_family_csv(_require_file(args.data, "--data"), grid, design)
        except GeneconError as exc:
            raise UsageError(f"--data: {args.data}: {exc}") from exc
        g = anova_estimate(data).g_hat
    measure = measure_from_kind(args.measure, grid, grid.size)
    return g, grid, measure, design


def _analysis_provenance(args, j: int, design: str | None) -> dict:
    return make_provenance(
        inputs={
            "g": args.g,
            "data": args.data,
            "grid": args.grid,
            "J": j,
            "design": design,
        },
        seed=None,
        measure_kind=args.measure,
        clip_tolerance=args.clip_tol,
        relatedness=RELATEDNESS[design] if design else None,
    )


def _emit_partition(g, grid, measure, j, provenance, out_path, svg_path):
    part = partition(g, j, measure)
    write_json(partition_report(g, part, grid, measure, provenance), out_path)
    if svg_path:
        write_svg(render_partition_figure(FigureSpec(part, grid), provenance), svg_path)


def _cmd_analyze(args) -> int:
    g, grid, measure, design = _load_analysis_inputs(args)
    if not 0 <= args.J <= g.dim:
        raise UsageError(f"--J must be in [0, {g.dim}], got {args.J}")
    if args.dry_run:
        return 0
    _emit_partition(g, grid, measure, args.J, _analysis_provenance(args, args.J, design),
                    args.out, args.svg)
    return 0


def _cmd_sweep(args) -> int:
    g, grid, measure, design = _load_analysis_inputs(args)
    if args.dry_run:
        return 0
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for j in range(g.dim + 1):
        _emit_partition(
            g, grid, measure, j, _analysis_provenance(args, j, design),
            out_dir / f"report_J{j:02d}.json",
            out_dir / f"figure_J{j:02d}.svg",
        )
    return 0


def _study_config(args) -> tuple[SimulationParams, int, int, str]:
    path = _require_file(args.config, "--config")
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise UsageError(f"--config: {path}: invalid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise UsageError(f"--config: {path}: expected a JSON object, got {type(cfg).__name__}")

    def need(key):
        if key not in cfg:
            raise UsageError(f"--config: {path}: missing field {key!r}")
        return cfg[key]

    def need_int(key):
        return json_int(need(key), f"field {key!r}")

    try:
        grid = TraitGrid.from_payload(need("grid"))
        g = ingest_gmatrix(need("g"), grid=grid, clip_tolerance=0.0)
        e = SymMatrix.from_payload(need("e"))
        params = SimulationParams(
            mu=json_numbers(cfg.get("mu", np.zeros(grid.size)), "field 'mu'"),
            g=g,
            e=e,
            sigma2=json_number(need("sigma2"), "field 'sigma2'"),
            n_families=need_int("families"),
            family_size=need_int("siblings"),
            design=str(need("design")),
            seed=args.seed if args.seed is not None else need_int("seed"),
        )
        reps = args.reps if args.reps is not None else need_int("reps")
        null_dim = args.null_dim if args.null_dim is not None else need_int("null_dim")
    except (GeneconError, ValueError) as exc:
        raise UsageError(f"--config: {path}: {exc}") from exc

    measure_kind = str(cfg.get("measure", "d1"))
    if reps < 1:
        raise UsageError(f"--reps must be at least 1, got {reps}")
    if not 1 <= null_dim <= grid.size - 1:
        raise UsageError(f"--null-dim must be in [1, {grid.size - 1}], got {null_dim}")
    if measure_kind not in MEASURE_ALIASES:
        raise UsageError(
            f"--config: measure must be one of {tuple(MEASURE_ALIASES)}, got {measure_kind!r}"
        )
    return params, reps, null_dim, measure_kind


def _cmd_simulate(args) -> int:
    params, reps, null_dim, measure_kind = _study_config(args)
    if args.dry_run:
        return 0
    measure = measure_from_kind(measure_kind, params.g.grid, params.dim)
    summary = run_study(params, reps, measure, null_dim=null_dim)
    provenance = make_provenance(
        inputs={"config": args.config, "reps": reps, "null_dim": null_dim},
        seed=params.seed,
        measure_kind=measure_kind,
        clip_tolerance=0.0,
        relatedness=params.relatedness,
        rng=RNG_DESCRIPTION,
    )
    write_json(study_report(summary, provenance), args.out)
    if args.svg:
        write_svg(render_study_figure(summary, provenance), args.svg)
    pc_means = "/".join(format(x, ".6g") for x in summary.pc_norm_means)
    pc_sds = "/".join(format(x, ".6g") for x in summary.pc_norm_sds)
    print(
        f"reps={summary.reps} simplest-response {summary.simplest_norm_mean:.6g}"
        f"±{summary.simplest_norm_sd:.6g} | null-PC responses {pc_means}±{pc_sds} | "
        f"negative-min-eigenvalue fraction {summary.negative_fraction:.6g}"
    )
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {"analyze": _cmd_analyze, "sweep": _cmd_sweep, "simulate": _cmd_simulate}
    try:
        thread_count()  # reject a malformed GENECON_THREADS before any work
        # an overflow ends as a NaN or infinity, which the report writer rejects
        # by field name; numpy's warning lines would only precede that message
        with np.errstate(all="ignore"):
            return handlers[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"genecon {args.command}: {exc}", file=sys.stderr)
        return 2
    except (GeneconError, OSError) as exc:
        print(f"genecon {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
