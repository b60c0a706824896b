"""The two bundled reference scripts, run as a user runs them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from genecon.core import SymMatrix, TraitGrid
from genecon.estimate import anova_estimate, load_family_csv
from genecon.reference import STUDY_SEED, study_params

ROOT = Path(__file__).resolve().parents[1]

# The study's summary and the dumped replicate's MANOVA reach the smallest raw
# eigenvalue by different arithmetic. Over 12 seeds x 2 replicates at the
# reference scale they differed by at most 1.3e-16 times the largest
# |eigenvalue|; the bound allows about 7 times that.
DUMP_RTOL = 4 * np.finfo(float).eps


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(ROOT / "scripts" / name),
                           *map(str, args)], env=env, capture_output=True, text=True, timeout=300)


def test_reference_analysis(tmp_path):
    run = run_script("run_reference_analysis.py", "--out-dir", tmp_path)
    assert run.returncode == 0, run.stderr
    for name in ("growth_rate", "height"):
        reports = sorted(p.stem[-2:] for p in (tmp_path / name).glob("report_J*.json"))
        figures = sorted(p.stem[-2:] for p in (tmp_path / name).glob("figure_J*.svg"))
        assert reports == figures == [f"{j:02d}" for j in range(7)]


def test_reference_study_and_dumped_replicate(tmp_path):
    run = run_script("run_reference_study.py", "--reps", 3, "--dump-replicate", 0,
                     "--out-dir", tmp_path)
    assert run.returncode == 0, run.stderr
    config = json.loads((tmp_path / "study_config.json").read_text())
    p = study_params(seed=STUDY_SEED)
    assert config["seed"] == p.seed == STUDY_SEED
    assert TraitGrid.from_payload(config["grid"]) == p.g.grid
    assert SymMatrix.from_payload(config["g"]) == p.g.matrix
    assert SymMatrix.from_payload(config["e"]) == p.e
    assert config["sigma2"] == p.sigma2
    assert config["mu"] == p.mu.tolist()
    assert (config["families"], config["siblings"], config["design"]) == (
        p.n_families, p.family_size, p.design)
    assert config["reps"] == 3

    summary = json.loads((tmp_path / "summary.json").read_text())
    est = anova_estimate(load_family_csv(tmp_path / "replicate_000.csv", p.g.grid, p.design))
    lam = est.raw_eigenvalues
    expected = summary["replicates"]["min_raw_eigenvalue"][0]
    assert abs(lam.min() - expected) <= DUMP_RTOL * np.abs(lam).max()


@pytest.mark.parametrize("args, message", [
    (["--dump-replicate", -1], "--dump-replicate must be in [0, 3), got -1"),
    (["--dump-replicate", 3], "--dump-replicate must be in [0, 3), got 3"),
    (["--dump-replicate", 9], "--dump-replicate must be in [0, 3), got 9"),
    (["--seed", -1], "--seed: seed must be in [0, 2**64), got -1"),
    (["--seed", 2**64], f"--seed: seed must be in [0, 2**64), got {2**64}"),
], ids=["dump-negative", "dump-reps", "dump-beyond", "seed-negative", "seed-too-large"])
def test_bad_study_flag_is_rejected_before_any_work(tmp_path, args, message):
    out = tmp_path / "study"
    run = run_script("run_reference_study.py", "--reps", 3, *args, "--out-dir", out)
    assert run.returncode == 2
    assert run.stderr.splitlines() == [f"run_reference_study.py: {message}"]
    assert run.stdout == ""
    assert not out.exists()
