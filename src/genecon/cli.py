"""Command-line entry point: analyze, sweep, and simulate subcommands.

Exit codes follow the usual scripting convention: 0 success, 1 runtime
failure, 2 bad usage or invalid inputs. Outputs are byte-identical for the
same inputs, seed, numpy version and LAPACK build.

Thread policy: importing this module sets OPENBLAS_NUM_THREADS, OMP_NUM_THREADS
and MKL_NUM_THREADS to 1 wherever they are unset, so BLAS runs on one thread
unless the user says otherwise (numpy must load afterwards, as it does when the
CLI runs). GENECON_THREADS is ignored, since a thread pool never beat one
thread, but a malformed value exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

# every matrix here is at most K x K, so more BLAS threads only spin
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from .core import (SymMatrix, TraitGrid, brief_repr, clip_negative_eigenvalues, json_int,
                   json_number, json_numbers, json_object)
from .errors import GeneconError, InvalidMatrix
from .estimate import (
    DESIGN_ALIASES,
    RELATEDNESS,
    anova_estimate,
    ingest_gmatrix,
    load_family_csv,
    normalize_design,
)
from .report import (
    _check_target,
    make_provenance,
    partition_report,
    render_partition_figure,
    render_study_figure,
    study_report,
    write_json,
    write_svg,
)
from .simplicity import MEASURE_ALIASES, SimplicityMeasure, measure_from_kind
from .simulate import RNG_DESCRIPTION, SimulationParams, run_study
from .spaces import partition, sweep_partitions


def _check_thread_env() -> None:
    """Reject a GENECON_THREADS that is not a nonnegative integer; any other value is ignored."""
    raw = os.environ.get("GENECON_THREADS", "").strip() or "0"
    try:
        n = int(raw)
    except ValueError:
        raise ValueError(f"GENECON_THREADS must be an integer, got {brief_repr(raw)}") from None
    if n < 0:
        raise ValueError(f"GENECON_THREADS must be nonnegative, got {brief_repr(n)}")


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


def _read_json(path: str):
    """The decoded JSON of a UTF-8 file; undecodable bytes or text raise ``invalid JSON``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        # JSONDecodeError and UnicodeDecodeError alike, and nesting too deep to decode
        except (ValueError, RecursionError) as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc


def _load(flag: str, path: str | None, read):
    """``read(path)``; a GeneconError or ValueError from it reads ``<flag>: <path>: <reason>``."""
    if not path:
        raise UsageError(f"missing required input {flag}")
    if not Path(path).is_file():  # a FIFO is refused too, as reading one would block
        problem = "not a regular file" if Path(path).exists() else "no such file"
        raise UsageError(f"{flag}: {problem}: {path}")
    try:
        return read(path)
    except (GeneconError, ValueError) as exc:
        where = "" if flag == "--data" else f"{path}: "  # a family CSV's reason names its path
        raise UsageError(f"{flag}: {where}{exc}") from exc


def _load_analysis_inputs(args):
    """(G, simplicity measure, design or None) from the analysis flags."""
    if bool(args.g) == bool(args.data):
        raise UsageError("provide exactly one of --g or --data")
    if not (math.isfinite(args.clip_tol) and args.clip_tol >= 0.0):
        raise UsageError(f"--clip-tol must be finite and nonnegative, got {args.clip_tol}")
    grid = _load("--grid", args.grid, lambda path: TraitGrid.from_payload(_read_json(path)))
    if args.g:
        if args.design:
            raise UsageError("--design is read only with --data, not with --g")
        g = _load("--g", args.g,
                  lambda path: ingest_gmatrix(_read_json(path), grid, args.clip_tol))
        design = None
    else:
        if not args.design:
            raise UsageError("--design is required with --data")
        design = normalize_design(args.design)
        data = _load("--data", args.data, lambda path: load_family_csv(path, grid, design))
        try:
            g_hat = anova_estimate(data).g_hat
        except InvalidMatrix as exc:  # finite records whose mean squares overflow
            raise UsageError(f"--data: {args.data}: mean squares overflow: {exc}") from exc
        g = clip_negative_eigenvalues(g_hat, args.clip_tol)
    try:
        measure = measure_from_kind(args.measure, grid)
    except GeneconError as exc:
        raise UsageError(f"--measure {args.measure}: {exc}") from exc
    return g, measure, design


def _analysis_provenance(args, j: int, design: str | None) -> dict:
    return make_provenance(
        inputs={
            "g": args.g,
            "data": args.data,
            "grid": args.grid,
            "J": j,
            "design": design,
        },
        measure_kind=args.measure,
        clip_tolerance=args.clip_tol,
        relatedness=RELATEDNESS[design] if design else None,
    )


def _check_outputs(*paths) -> None:
    """Check every output of a run before its first write, so a bad one leaves no other behind."""
    for path in paths:
        if path is not None:
            _check_target(path)


def _emit_partition(part, provenance, out_path, svg_path):
    write_json(partition_report(part, provenance), out_path)
    if svg_path is not None:
        write_svg(render_partition_figure(part, provenance), svg_path)


def _cmd_analyze(args) -> int:
    g, measure, design = _load_analysis_inputs(args)
    if not 0 <= args.J <= g.dim:
        raise UsageError(f"--J must be in [0, {g.dim}], got {brief_repr(args.J)}")
    if args.dry_run:
        return 0
    _check_outputs(args.out, args.svg)
    _emit_partition(partition(g, args.J, measure),
                    _analysis_provenance(args, args.J, design), args.out, args.svg)
    return 0


def _cmd_sweep(args) -> int:
    g, measure, design = _load_analysis_inputs(args)
    if args.dry_run:
        return 0
    os.makedirs(args.out_dir, exist_ok=True)  # raises for "", which Path reads as "."
    out_dir = Path(args.out_dir)
    pairs = [(out_dir / f"report_J{j:02d}.json", out_dir / f"figure_J{j:02d}.svg")
             for j in range(g.dim + 1)]
    _check_outputs(*sum(pairs, ()))
    for part, pair in zip(sweep_partitions(g, measure), pairs):
        _emit_partition(part, _analysis_provenance(args, part.j, design), *pair)
    return 0


def _study_config(cfg, args) -> tuple[SimulationParams, int, int, str, SimplicityMeasure]:
    """The study a decoded config describes; bad fields raise ValueError, bad flags UsageError."""
    # a flag may give seed, reps or null_dim, so `checked` requires each field it reads
    cfg = json_object(cfg, ("grid", "g", "e", "sigma2", "families", "siblings", "design"),
                      ("mu", "seed", "reps", "null_dim", "measure"))

    def need_int(key):
        return json_int(cfg[key], f"field {key!r}")

    def choice(key, value, names):  # a name its flag accepts, exactly as written
        if not (isinstance(value, str) and value in names):
            raise ValueError(f"field {key!r} must be one of {tuple(names)}, "
                             f"got {brief_repr(value)}")
        return value

    def checked(key, ok, bounds):
        """A flag's value if given, else the config field's; named by its source if bad."""
        flag = getattr(args, key)
        if flag is None:  # then the field is required
            json_object(cfg, (key,), cfg)
        value = need_int(key) if flag is None else flag
        if ok(value):
            return value
        reason = f"{key} must be {bounds}, got {brief_repr(value)}"
        if flag is None:
            raise ValueError(f"field {key!r}: {reason}")
        raise UsageError(f"--{key.replace('_', '-')}: {reason}")

    grid = TraitGrid.from_payload(cfg["grid"])
    g = ingest_gmatrix(cfg["g"], grid=grid, clip_tolerance=0.0)
    e = SymMatrix.from_payload(cfg["e"])
    seed = checked("seed", lambda n: 0 <= n < 2**64, "in [0, 2**64)")
    reps = checked("reps", lambda n: n >= 1, "at least 1")
    null_dim = checked("null_dim", lambda n: 1 <= n < grid.size, f"in [1, {grid.size - 1}]")
    params = SimulationParams(
        mu=json_numbers(cfg.get("mu", [0.0] * grid.size), "field 'mu'"),
        g=g,
        e=e,
        sigma2=json_number(cfg["sigma2"], "field 'sigma2'"),
        n_families=need_int("families"),
        family_size=need_int("siblings"),
        design=choice("design", cfg["design"], DESIGN_ALIASES),
        seed=seed,
    )
    measure_kind = choice("measure", cfg.get("measure", "d1"), MEASURE_ALIASES)
    try:
        measure = measure_from_kind(measure_kind, grid)
    except GeneconError as exc:
        raise ValueError(f"measure {measure_kind}: {exc}") from exc
    return params, reps, null_dim, measure_kind, measure


def _cmd_simulate(args) -> int:
    params, reps, null_dim, measure_kind, measure = _load(
        "--config", args.config, lambda path: _study_config(_read_json(path), args))
    if args.dry_run:
        return 0
    _check_outputs(args.out, args.svg)
    try:
        summary = run_study(params, reps, measure, null_dim=null_dim)
    except InvalidMatrix as exc:  # finite inputs whose mean squares overflow
        raise UsageError(f"--config: {args.config}: mean squares overflow: {exc}") from exc
    provenance = make_provenance(
        inputs={"config": args.config, "reps": reps, "null_dim": null_dim},
        seed=params.seed,
        measure_kind=measure_kind,
        clip_tolerance=0.0,
        relatedness=params.relatedness,
        rng=RNG_DESCRIPTION,
    )
    write_json(study_report(summary, provenance), args.out)
    if args.svg is not None:
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
        _check_thread_env()  # before any work
        # realpath, as Path.resolve raises RuntimeError on a symlink loop before Python 3.13
        if getattr(args, "svg", None) and os.path.realpath(args.svg) == os.path.realpath(args.out):
            raise UsageError(f"--out {args.out} and --svg {args.svg} name the same file")
        # an overflow ends as a NaN or infinity, which the report writer rejects
        # by field name; numpy's warning lines would only precede that message
        with np.errstate(all="ignore"):
            return handlers[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"genecon {args.command}: {exc}", file=sys.stderr)
        return 2
    except (GeneconError, OSError, MemoryError) as exc:
        print(f"genecon {args.command}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
