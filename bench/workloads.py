"""The four benchmark workloads: seeded inputs, CLI invocations and output checks.

Every input file is generated here from the workload seed; the program under
test receives only those files. The checks use numpy as an independent oracle
and test properties that survive an intended change of output bytes, such as
a different eigensolver backend or RNG stream layout. Byte-identity is checked
separately, between invocations of the same commit (see run.py).
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# The published spectra and designs, restated here so that the checks do not
# depend on the program's own copy in genecon.reference.
TEMPERATURE_POINTS = (11.0, 17.0, 23.0, 29.0, 35.0, 40.0)
GROWTH_EIGENVALUES = (0.618, 0.200, 0.153, 0.061, 0.008, 0.0)
AGE_POINTS = (18.0, 26.0, 33.0, 39.0, 47.0, 57.0)
HEIGHT_EIGENVALUES = (48.98, 0.82, 0.33, 0.08, 0.0, 0.0)
REFERENCE_SETS = {
    "growth_rate": (TEMPERATURE_POINTS, GROWTH_EIGENVALUES),
    "height": (AGE_POINTS, HEIGHT_EIGENVALUES),
}
ENV_VARIANCE = 0.10
NOISE_VARIANCE = 0.01

STUDY_REPS = 200
STUDY_FAMILIES = 100
STUDY_SIBLINGS = 20
STUDY_NULL_DIM = 3

FINE_DIM = 48
FINE_DECAY = 0.8          # eigenvalue i is FINE_DECAY**i: distinct, no clipping

CSV_FAMILIES = 1000
CSV_MEMBERS = 50
CSV_J = 2

ORTHONORMAL_TOL = 1e-8
EIGEN_RTOL = 1e-8         # report vs oracle eigenvalues, relative to the largest
FRACTION_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``prepare`` writes the inputs under ``inputs/`` of the work directory and
    returns what the check needs to know about them; ``calls`` gives the CLI
    argument lists of one invocation writing under ``out``; ``check`` returns
    the failed output checks (empty when the outputs are correct).
    """

    name: str
    prepare: Callable[[Path, np.random.Generator], dict]
    calls: Callable[[str], list[list[str]]]
    check: Callable[[Path, dict], list[str]]


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _matrix_payload(m: np.ndarray) -> dict:
    return {"dim": int(m.shape[0]), "entries": [float(x) for x in m.reshape(-1)]}


def _haar_orthonormal(k: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _svg_failures(path: Path) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{path.name}: not a readable SVG document: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"{path.name}: root element is {root.tag}, not svg"]
    return []


def _eigen_failures(label: str, got, expected: np.ndarray) -> list[str]:
    got = np.asarray(got, dtype=float)
    if got.shape != expected.shape:
        return [f"{label}: {got.size} eigenvalues, expected {expected.size}"]
    err = float(np.abs(got - expected).max())
    if err > EIGEN_RTOL * max(1.0, float(np.abs(expected).max())):
        return [f"{label}: eigenvalues differ from the oracle by {err:.3e}"]
    return []


def _partition_failures(label: str, report: dict, j: int, k: int) -> list[str]:
    """Structural checks every partition report must pass."""
    fails = []
    if report.get("J") != j or report.get("dim") != k:
        fails.append(f"{label}: J/dim are {report.get('J')}/{report.get('dim')}, expected {j}/{k}")
        return fails
    total = report["model_variance_fraction"] + report["null_variance_fraction"]
    if not report["zero_variance"] and abs(total - 1.0) > FRACTION_TOL:
        fails.append(f"{label}: model + null fractions sum to {total!r}")
    basis = np.array([v["coordinates"] for v in report["vectors"]], dtype=float)
    if basis.shape != (k, k):
        fails.append(f"{label}: combined basis has shape {basis.shape}, expected {(k, k)}")
        return fails
    err = float(np.abs(basis @ basis.T - np.eye(k)).max())
    if err > ORTHONORMAL_TOL:
        fails.append(f"{label}: combined basis is not orthonormal (error {err:.3e})")
    roles = [v["role"] for v in report["vectors"]]
    if roles != ["model"] * j + ["null"] * (k - j):
        fails.append(f"{label}: vector roles are {roles}")
    return fails


def _sweep_failures(label: str, out_dir: Path, expected_eigs: np.ndarray) -> list[str]:
    """A J-sweep directory holds K+1 report/figure pairs with the oracle spectrum."""
    k = expected_eigs.size
    names = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    expected_names = sorted(
        [f"report_J{j:02d}.json" for j in range(k + 1)]
        + [f"figure_J{j:02d}.svg" for j in range(k + 1)]
    )
    if names != expected_names:
        return [f"{label}: found {len(names)} files, expected {k + 1} report/figure pairs"]
    fails = []
    for j in range(k + 1):
        report = _load(out_dir / f"report_J{j:02d}.json")
        fails += _eigen_failures(f"{label} J={j}", report["eigenvalues"], expected_eigs)
        fails += _partition_failures(f"{label} J={j}", report, j, k)
        fails += _svg_failures(out_dir / f"figure_J{j:02d}.svg")
    return fails


# --- study_ref ---------------------------------------------------------------

def _study_prepare(inputs: Path, rng: np.random.Generator) -> dict:
    k = len(TEMPERATURE_POINTS)
    config = {
        "grid": {"points": list(TEMPERATURE_POINTS)},
        "g": _matrix_payload(np.diag(GROWTH_EIGENVALUES)),
        "e": _matrix_payload(ENV_VARIANCE * np.eye(k)),
        "sigma2": NOISE_VARIANCE,
        "mu": [0.0] * k,
        "families": STUDY_FAMILIES,
        "siblings": STUDY_SIBLINGS,
        "design": "half-sib",
        "seed": int(rng.integers(0, 2**31 - 1)),
        "reps": STUDY_REPS,
        "null_dim": STUDY_NULL_DIM,
        "measure": "d1",
    }
    _write_json(inputs / "study.json", config)
    return {"study_seed": config["seed"]}


def _study_calls(out: str) -> list[list[str]]:
    return [["simulate", "--config", "inputs/study.json",
             "--out", f"{out}/summary.json", "--svg", f"{out}/study.svg"]]


def _study_check(out: Path, ctx: dict) -> list[str]:
    try:
        doc = _load(out / "summary.json")
    except (OSError, ValueError) as exc:
        return [f"summary.json: {exc}"]
    fails = _svg_failures(out / "study.svg")
    if doc.get("reps") != STUDY_REPS:
        fails.append(f"reps is {doc.get('reps')}, expected {STUDY_REPS}")
    if doc["params"]["seed"] != ctx["study_seed"]:
        fails.append(f"study seed is {doc['params']['seed']}, expected {ctx['study_seed']}")
    reps = doc["replicates"]
    for key, value in reps.items():
        if len(value) != STUDY_REPS:
            fails.append(f"replicates.{key} has {len(value)} entries, expected {STUDY_REPS}")
    if fails:
        return fails

    # the aggregates must follow from the per-replicate records
    agg = doc["aggregate"]
    simplest = np.array(reps["simplest_response_norm"])
    pc = np.array(reps["null_pc_response_norms"])
    minima = np.array(reps["min_raw_eigenvalue"])
    recomputed = {
        "simplest_norm_mean": simplest.mean(),
        "simplest_norm_sd": simplest.std(ddof=1),
        "negative_fraction": float(np.mean(minima < 0.0)),
        "min_eigenvalue_observed": minima.min(),
    }
    for key, value in recomputed.items():
        if abs(agg[key] - value) > 1e-12 * max(1.0, abs(value)):
            fails.append(f"aggregate.{key} is {agg[key]!r}, replicates give {value!r}")
    for key, value in (("pc_norm_means", pc.mean(axis=0)), ("pc_norm_sds", pc.std(axis=0, ddof=1))):
        if np.abs(np.array(agg[key]) - value).max() > 1e-12 * max(1.0, np.abs(value).max()):
            fails.append(f"aggregate.{key} does not follow from the replicates")

    # acceptance criterion 7's orderings (a), (b) and (c)
    if not agg["negative_fraction"] > 0.5:
        fails.append(f"(a) negative-eigenvalue fraction {agg['negative_fraction']} <= 0.5")
    gap = agg["pc_norm_means"][0] - agg["simplest_norm_mean"]
    pooled = np.sqrt((agg["simplest_norm_sd"] ** 2 + agg["pc_norm_sds"][0] ** 2) / 2)
    if not gap > 3.0 * pooled:
        fails.append(f"(b) response gap {gap:.4g} <= 3 pooled sd {3.0 * pooled:.4g}")
    if not agg["simplest_norm_sd"] < agg["pc_norm_sds"][0]:
        fails.append("(c) simplest response sd is not below the first null PC's")
    return fails


# --- sweep_ref ---------------------------------------------------------------

def _sweep_ref_prepare(inputs: Path, rng: np.random.Generator) -> dict:
    # G is the published spectrum on the coordinate frame, as in the bundled
    # analysis. The seed picks the grid's unit (a power of two) and origin (an
    # integer); the d1 measure is exactly invariant to both, so every seed
    # does the same work.
    unit = 2.0 ** int(rng.integers(-3, 4))
    for name, (points, spectrum) in REFERENCE_SETS.items():
        origin = float(rng.integers(-100, 101))
        _write_json(inputs / f"{name}_grid.json", {"points": [unit * (t + origin) for t in points]})
        _write_json(inputs / f"{name}_g.json", _matrix_payload(np.diag(spectrum)))
    return {}


def _sweep_ref_calls(out: str) -> list[list[str]]:
    return [
        ["sweep", "--g", f"inputs/{name}_g.json", "--grid", f"inputs/{name}_grid.json",
         "--measure", "d1", "--out-dir", f"{out}/{name}"]
        for name in REFERENCE_SETS
    ]


def _sweep_ref_check(out: Path, ctx: dict) -> list[str]:
    fails = []
    for name, (_, spectrum) in REFERENCE_SETS.items():
        fails += _sweep_failures(name, out / name, np.asarray(spectrum))
    return fails


# --- sweep_fine --------------------------------------------------------------

def _sweep_fine_prepare(inputs: Path, rng: np.random.Generator) -> dict:
    q = _haar_orthonormal(FINE_DIM, rng)
    spectrum = FINE_DECAY ** np.arange(FINE_DIM)
    g = (q * spectrum) @ q.T
    g = (g + g.T) / 2.0
    _write_json(inputs / "fine_grid.json", {"points": [float(t) for t in np.arange(FINE_DIM)]})
    _write_json(inputs / "fine_g.json", _matrix_payload(g))
    # the oracle reads the matrix back exactly as the program receives it
    entries = np.array(_load(inputs / "fine_g.json")["entries"]).reshape(FINE_DIM, FINE_DIM)
    return {"eigenvalues": np.linalg.eigvalsh(entries)[::-1]}


def _sweep_fine_calls(out: str) -> list[list[str]]:
    return [["sweep", "--g", "inputs/fine_g.json", "--grid", "inputs/fine_grid.json",
             "--out-dir", f"{out}/fine"]]


def _sweep_fine_check(out: Path, ctx: dict) -> list[str]:
    return _sweep_failures("fine", out / "fine", ctx["eigenvalues"])


# --- analyze_csv -------------------------------------------------------------

def _manova_g(values: np.ndarray, relatedness: float = 4.0) -> np.ndarray:
    """Independent one-way MANOVA moment estimate of G from (families, members, K)."""
    n_f, n, k = values.shape
    means = values.mean(axis=1)
    dev_b = means - means.mean(axis=0)
    msb = n * np.einsum("fi,fj->ij", dev_b, dev_b) / (n_f - 1)
    dev_w = values - means[:, None, :]
    msw = np.einsum("fmi,fmj->ij", dev_w, dev_w) / (n_f * (n - 1))
    g = relatedness * (msb - msw) / n
    return (g + g.T) / 2.0


def _csv_prepare(inputs: Path, rng: np.random.Generator) -> dict:
    k = len(TEMPERATURE_POINTS)
    g = np.diag(GROWTH_EIGENVALUES)
    family = rng.standard_normal((CSV_FAMILIES, 1, k)) * np.sqrt(np.diag(g) / 4.0)
    within = np.sqrt(3.0 * np.diag(g) / 4.0 + ENV_VARIANCE + NOISE_VARIANCE)
    values = family + rng.standard_normal((CSV_FAMILIES, CSV_MEMBERS, k)) * within
    lines = ["family,individual," + ",".join(f"t{i + 1}" for i in range(k))]
    for f in range(CSV_FAMILIES):
        for m in range(CSV_MEMBERS):
            lines.append(f"F{f + 1},I{m + 1}," + ",".join(repr(float(x)) for x in values[f, m]))
    (inputs / "families.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_json(inputs / "grid.json", {"points": list(TEMPERATURE_POINTS)})
    oracle = np.linalg.eigvalsh(_manova_g(values))[::-1]
    return {"eigenvalues": np.clip(oracle, 0.0, None)}


def _csv_calls(out: str) -> list[list[str]]:
    return [["analyze", "--data", "inputs/families.csv", "--design", "halfsib",
             "--grid", "inputs/grid.json", "--J", str(CSV_J),
             "--out", f"{out}/report.json", "--svg", f"{out}/figure.svg"]]


def _csv_check(out: Path, ctx: dict) -> list[str]:
    try:
        report = _load(out / "report.json")
    except (OSError, ValueError) as exc:
        return [f"report.json: {exc}"]
    k = len(TEMPERATURE_POINTS)
    fails = _eigen_failures("report", report["eigenvalues"], ctx["eigenvalues"])
    fails += _partition_failures("report", report, CSV_J, k)
    fails += _svg_failures(out / "figure.svg")
    return fails


WORKLOADS = {
    w.name: w
    for w in (
        Workload("study_ref", _study_prepare, _study_calls, _study_check),
        Workload("sweep_ref", _sweep_ref_prepare, _sweep_ref_calls, _sweep_ref_check),
        Workload("sweep_fine", _sweep_fine_prepare, _sweep_fine_calls, _sweep_fine_check),
        Workload("analyze_csv", _csv_prepare, _csv_calls, _csv_check),
    )
}
