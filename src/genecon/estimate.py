"""Method-of-moments estimation of the genetic covariance matrix from
balanced family data (one-way MANOVA), plus ingestion of externally
estimated matrices.

For a balanced design with N_f families of n members each:

    MSB = n * sum_j (ybar_j - ybar)(ybar_j - ybar)' / (N_f - 1)
    MSW = sum_{j,i} (y_ij - ybar_j)(y_ij - ybar_j)' / (N_f (n - 1))
    sigma2_f = (MSB - MSW) / n
    G_hat_raw = c * sigma2_f

with relatedness coefficient c = 4 for half-siblings (family variance is a
quarter of the additive genetic variance) and c = 2 for full siblings. The
raw estimate may be indefinite; the usable estimate clips its negative
eigenvalues to zero. Both are kept, because the sign of the smallest raw
eigenvalue is itself a useful diagnostic.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    GMatrix,
    SymMatrix,
    TraitGrid,
    _clip_decomposition,
    _readonly,
    _symmetrized,
    clip_negative_eigenvalues,
    symmetric_eigen,
)
from .errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidMatrix,
    UnbalancedDesign,
)

HALF_SIB = "half-sib"
FULL_SIB = "full-sib"
RELATEDNESS = {HALF_SIB: 4.0, FULL_SIB: 2.0}
DESIGN_ALIASES = {HALF_SIB: HALF_SIB, "halfsib": HALF_SIB, FULL_SIB: FULL_SIB, "fullsib": FULL_SIB}


def normalize_design(tag: str) -> str:
    cleaned = tag.strip().lower().replace("_", "-")
    if cleaned not in DESIGN_ALIASES:
        raise ValueError(f"unknown family design {tag!r}; expected half-sib or full-sib")
    return DESIGN_ALIASES[cleaned]


@dataclass(frozen=True, eq=False)
class FamilyDataset:
    """Balanced family-structured phenotype records.

    ``values[j, i]`` is the trait vector of member i of family j. Every family
    must have the same number of members; that balance is what makes the
    closed-form moment estimator valid.
    """

    values: np.ndarray  # (N_f, n, K)
    grid: TraitGrid
    design: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 3:
            raise UnbalancedDesign(
                f"expected a (families, members, traits) array, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidMatrix("phenotype records must be finite")
        if v.shape[0] < 2 or v.shape[1] < 2:
            raise InsufficientData(
                f"need at least 2 families of 2 members, got {v.shape[0]} x {v.shape[1]}"
            )
        if v.shape[2] != self.grid.size:
            raise DimensionMismatch(
                f"records have {v.shape[2]} traits but grid has {self.grid.size} points"
            )
        object.__setattr__(self, "design", normalize_design(self.design))
        object.__setattr__(self, "values", _readonly(v))

    @classmethod
    def from_records(cls, families, grid: TraitGrid, design: str) -> "FamilyDataset":
        """Build from a list of per-family record lists, enforcing balance."""
        sizes = {len(fam) for fam in families}
        if len(sizes) > 1:
            raise UnbalancedDesign(f"family sizes differ: {sorted(sizes)}")
        return cls(np.asarray(families, dtype=float), grid, design)

    @property
    def n_families(self) -> int:
        return int(self.values.shape[0])

    @property
    def family_size(self) -> int:
        return int(self.values.shape[1])

    @property
    def n_traits(self) -> int:
        return int(self.values.shape[2])

    @property
    def relatedness(self) -> float:
        return RELATEDNESS[self.design]


@dataclass(frozen=True, eq=False)
class VarianceComponents:
    """Mean-square matrices and the derived genetic covariance estimates."""

    between_ms: SymMatrix
    within_ms: SymMatrix
    family_component: SymMatrix
    g_hat_raw: SymMatrix
    g_hat: GMatrix
    raw_eigenvalues: np.ndarray
    clipped_indices: tuple[int, ...]
    relatedness: float

    def __post_init__(self):
        object.__setattr__(self, "raw_eigenvalues", _readonly(self.raw_eigenvalues))

    @property
    def min_raw_eigenvalue(self) -> float:
        return float(self.raw_eigenvalues.min())


def _mean_squares(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MSB and MSW of (N_f, n, K) balanced records, before symmetrizing and checking."""
    n_f, n, _ = values.shape
    family_means = values.mean(axis=1)
    grand_mean = family_means.mean(axis=0)

    dev_b = family_means - grand_mean
    msb = n * (dev_b.T @ dev_b) / (n_f - 1)

    dev_w = (values - family_means[:, None, :]).reshape(n_f * n, -1)
    msw = (dev_w.T @ dev_w) / (n_f * (n - 1))
    return msb, msw


def _raw_estimates(msb, msw, n: int, c: float) -> tuple[np.ndarray, ...]:
    """Checked MSB, MSW, (MSB - MSW)/n and G_hat_raw = c (MSB - MSW)/n over (..., K, K) stacks."""
    msb, msw = _symmetrized(msb), _symmetrized(msw)
    family = _symmetrized((msb - msw) / n)
    return msb, msw, family, _symmetrized(c * family)


def anova_estimate(data: FamilyDataset) -> VarianceComponents:
    """One-way MANOVA moment estimator of G from a balanced family design."""
    estimates = _raw_estimates(*_mean_squares(data.values), data.family_size, data.relatedness)
    msb, msw, family_component, g_raw = (SymMatrix(m) for m in estimates)

    raw_eig = symmetric_eigen(g_raw)
    g_hat = _clip_decomposition(g_raw, raw_eig, 0.0, data.grid)
    return VarianceComponents(
        between_ms=msb,
        within_ms=msw,
        family_component=family_component,
        g_hat_raw=g_raw,
        g_hat=g_hat,
        raw_eigenvalues=raw_eig.eigenvalues,
        clipped_indices=g_hat.clipped_indices,
        relatedness=data.relatedness,
    )


def ingest_gmatrix(
    source: str | Path | dict,
    grid: TraitGrid | None = None,
    clip_tolerance: float = 0.0,
) -> GMatrix:
    """Load an externally estimated G (JSON path or payload), clip, decompose."""
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            payload = json.load(fh)
    else:
        payload = source
    matrix = SymMatrix.from_payload(payload)
    if grid is not None and grid.size != matrix.dim:
        raise DimensionMismatch(
            f"matrix is {matrix.dim}-dimensional but grid has {grid.size} points"
        )
    return clip_negative_eigenvalues(matrix, clip_tolerance, grid=grid)


def load_family_csv(path: str | Path, grid: TraitGrid, design: str) -> FamilyDataset:
    """Read `family,individual,t1,...,tK` records, validating balance."""
    k = grid.size
    expected = ["family", "individual"] + [f"t{i + 1}" for i in range(k)]
    families: dict[str, dict[str, list[float]]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != expected:
            raise InvalidMatrix(
                f"{path}: expected header {','.join(expected)}, got "
                f"{','.join(header) if header else '<empty>'}"
            )
        for row_num, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != k + 2:
                raise InvalidMatrix(f"{path}:{row_num}: expected {k + 2} fields, got {len(row)}")
            try:
                traits = [float(x) for x in row[2:]]
            except ValueError as exc:
                raise InvalidMatrix(f"{path}:{row_num}: {exc}") from exc
            members = families.setdefault(row[0], {})
            if row[1] in members:
                raise InvalidMatrix(
                    f"{path}:{row_num}: duplicate record for family {row[0]!r}, "
                    f"individual {row[1]!r}"
                )
            members[row[1]] = traits
    if not families:
        raise InsufficientData(f"{path}: no records")
    return FamilyDataset.from_records(
        [list(members.values()) for members in families.values()], grid, design
    )


def save_family_csv(data: FamilyDataset, path: str | Path) -> None:
    """Write a dataset in the same CSV layout `load_family_csv` reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["family", "individual"] + [f"t{i + 1}" for i in range(data.n_traits)])
        for j in range(data.n_families):
            for i in range(data.family_size):
                writer.writerow(
                    [f"F{j + 1}", f"I{i + 1}"] + [repr(float(x)) for x in data.values[j, i]]
                )
