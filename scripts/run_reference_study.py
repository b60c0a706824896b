"""Replicated estimation study at the reference scale.

Simulates half-sib family data under the growth-rate covariance surrogate,
re-estimates G by the moment estimator in each replicate, and summarizes the
nearly-null-space geometry and selection responses:

    python scripts/run_reference_study.py --out-dir results/study
    python scripts/run_reference_study.py --reps 50 --dump-replicate 0

The optional --dump-replicate N, for N in [0, reps - 1], writes as CSV the
records of replicate N, from the same parameters the study runs; their MANOVA
reproduces that replicate up to roundoff.
"""

import argparse
import json
import sys
from pathlib import Path

from genecon.cli import main as genecon_main
from genecon.core import json_int
from genecon.estimate import save_family_csv
from genecon.reference import STUDY_NULL_DIM, STUDY_REPS, STUDY_SEED, study_params
from genecon.simulate import KEY_MAX, SimulationParams, generate_dataset


def write_config(path: Path, p: SimulationParams, reps: int) -> None:
    config = {"grid": p.g.grid.to_payload(), **p.to_payload(),
              "reps": reps, "null_dim": STUDY_NULL_DIM, "measure": "d1"}
    path.write_text(json.dumps(config, indent=2) + "\n")


def run(out_dir: Path, p: SimulationParams, reps: int, dump_replicate: int | None) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / "study_config.json"
    write_config(config, p, reps)
    code = genecon_main([
        "simulate",
        "--config", str(config),
        "--out", str(out_dir / "summary.json"),
        "--svg", str(out_dir / "study.svg"),
    ])
    if code != 0:
        return code
    if dump_replicate is not None:
        dump = out_dir / f"replicate_{dump_replicate:03d}.csv"
        save_family_csv(generate_dataset(p, replicate=dump_replicate), dump)
        print(f"dumped replicate {dump_replicate} to {dump}")
    print(f"summary and figure written to {out_dir}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("results/study"))
    parser.add_argument("--reps", type=int, default=STUDY_REPS)
    parser.add_argument("--seed", type=int, default=STUDY_SEED)
    parser.add_argument("--dump-replicate", type=int, default=None)
    args = parser.parse_args()
    try:  # every flag by its own name, before any work
        json_int(args.reps, "--reps", 1)
        json_int(args.seed, "--seed", 0, KEY_MAX)
        if args.dump_replicate is not None:
            json_int(args.dump_replicate, "--dump-replicate", 0, args.reps - 1)
    except ValueError as exc:
        parser.exit(2, f"{parser.prog}: {exc}\n")
    sys.exit(run(args.out_dir, study_params(seed=args.seed), args.reps, args.dump_replicate))
