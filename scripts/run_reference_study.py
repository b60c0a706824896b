"""Replicated estimation study at the reference scale.

Simulates half-sib family data under the growth-rate covariance surrogate,
re-estimates G by the moment estimator in each replicate, and summarizes the
nearly-null-space geometry and selection responses:

    python scripts/run_reference_study.py --out-dir results/study
    python scripts/run_reference_study.py --reps 50 --dump-replicate 0

The optional --dump-replicate N writes, as CSV, records whose MANOVA
reproduces replicate N of the study up to roundoff.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from genecon.cli import main as genecon_main
from genecon.estimate import save_family_csv
from genecon.reference import (
    GROWTH_EIGENVALUES,
    STUDY_FAMILIES,
    STUDY_FAMILY_SIZE,
    STUDY_NULL_DIM,
    STUDY_REPS,
    STUDY_SEED,
    SURROGATE_ENV_VARIANCE,
    SURROGATE_NOISE_VARIANCE,
    TEMPERATURE_POINTS,
    study_params,
)
from genecon.simulate import generate_dataset


def write_config(path: Path, reps: int, seed: int) -> None:
    k = len(TEMPERATURE_POINTS)
    config = {
        "grid": {"points": list(TEMPERATURE_POINTS)},
        "g": {"dim": k, "entries": list(np.diag(GROWTH_EIGENVALUES).ravel())},
        "e": {"dim": k, "entries": list((SURROGATE_ENV_VARIANCE * np.eye(k)).ravel())},
        "sigma2": SURROGATE_NOISE_VARIANCE,
        "mu": [0.0] * k,
        "families": STUDY_FAMILIES,
        "siblings": STUDY_FAMILY_SIZE,
        "design": "half-sib",
        "seed": seed,
        "reps": reps,
        "null_dim": STUDY_NULL_DIM,
        "measure": "d1",
    }
    path.write_text(json.dumps(config, indent=2) + "\n")


def run(out_dir: Path, reps: int, seed: int, dump_replicate: int | None) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    config = out_dir / "study_config.json"
    write_config(config, reps, seed)
    code = genecon_main([
        "simulate",
        "--config", str(config),
        "--out", str(out_dir / "summary.json"),
        "--svg", str(out_dir / "study.svg"),
    ])
    if code != 0:
        return code
    if dump_replicate is not None:
        data = generate_dataset(study_params(seed=seed), replicate=dump_replicate)
        dump = out_dir / f"replicate_{dump_replicate:03d}.csv"
        save_family_csv(data, dump)
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
    sys.exit(run(args.out_dir, args.reps, args.seed, args.dump_replicate))
