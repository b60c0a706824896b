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
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    GMatrix,
    SymMatrix,
    TraitGrid,
    _ReadOnlyArrays,
    _clip_decomposition,
    _readonly,
    _symmetrized,
    brief,
    brief_repr,
    clip_negative_eigenvalues,
    json_int,
    reals,
    symmetric_eigen,
)
from .errors import (
    GeneconError,
    InsufficientData,
    InvalidMatrix,
    UnbalancedDesign,
)

HALF_SIB = "half-sib"
FULL_SIB = "full-sib"
RELATEDNESS = {HALF_SIB: 4.0, FULL_SIB: 2.0}
DESIGN_ALIASES = {HALF_SIB: HALF_SIB, "halfsib": HALF_SIB, FULL_SIB: FULL_SIB, "fullsib": FULL_SIB}


def normalize_design(tag: str) -> str:
    cleaned = tag.strip().lower().replace("_", "-") if isinstance(tag, str) else None
    if cleaned not in DESIGN_ALIASES:
        raise ValueError(f"unknown family design {brief_repr(tag)}; expected half-sib or full-sib")
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
        v = reals(self.values, "values", (None, None, self.grid.size))
        if not np.all(np.isfinite(v)):
            raise InvalidMatrix("phenotype records must be finite")
        json_int(v.shape[0], "n_families", 2, error=InsufficientData)
        json_int(v.shape[1], "family_size", 2, error=InsufficientData)
        object.__setattr__(self, "design", normalize_design(self.design))
        object.__setattr__(self, "values", _readonly(v))

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
class VarianceComponents(_ReadOnlyArrays):
    """Mean-square matrices and the derived genetic covariance estimates."""

    between_ms: SymMatrix
    within_ms: SymMatrix
    family_component: SymMatrix
    g_hat_raw: SymMatrix
    g_hat: GMatrix
    raw_eigenvalues: np.ndarray
    relatedness: float


def _between_ms(family_means: np.ndarray, n: int) -> np.ndarray:
    """MSB of (..., N_f, K) family means of n members each, before symmetrizing and checking."""
    dev_b = family_means - family_means.mean(axis=-2, keepdims=True)
    return n * (np.swapaxes(dev_b, -1, -2) @ dev_b) / (family_means.shape[-2] - 1)


def _mean_squares(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MSB and MSW of (N_f, n, K) balanced records, before symmetrizing and checking."""
    n_f, n, _ = values.shape
    family_means = values.mean(axis=1)
    msb = _between_ms(family_means, n)

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
        relatedness=data.relatedness,
    )


def ingest_gmatrix(payload: dict, grid: TraitGrid | None = None,
                   clip_tolerance: float = 0.0) -> GMatrix:
    """An externally estimated G from its decoded JSON payload, clipped and decomposed.

    A grid whose size is not the matrix dimension raises ``DimensionMismatch``.
    """
    return clip_negative_eigenvalues(SymMatrix.from_payload(payload), clip_tolerance, grid=grid)


def load_family_csv(path: str | Path, grid: TraitGrid, design: str) -> FamilyDataset:
    """Read `family,individual,t1,...,tK` records, validating balance.

    The file is split into fields in bulk where `_bulk_fields` can vouch for
    the split, and row by row by `_row_fields` otherwise, which alone words
    an error in the fields. The records are then checked here, once for both:
    the earliest record in file order that is non-finite or a duplicate, then
    the first family whose size differs, then too few families or members.
    Each error names ``path`` as given, then the line at fault where there is
    one: ``<path>:<line>: <reason>`` or ``<path>: <reason>``.
    """
    k = grid.size
    ids, values, echo, line = _bulk_fields(path, k) or _row_fields(path, k)
    n = len(values)
    if n == 0:
        raise InsufficientData(f"{path}: no records")
    finite = np.isfinite(values)
    _, first, family = np.unique(ids[:, 0], return_index=True, return_inverse=True)
    family = np.argsort(np.argsort(first))[family]  # codes in order of first appearance
    _, member = np.unique(ids[:, 1], return_inverse=True)
    repeated = np.ones(n, dtype=bool)
    repeated[np.unique(family * n + member, return_index=True)[1]] = False
    bad = np.flatnonzero(repeated | ~finite.all(axis=1))
    if bad.size:
        r = bad[0]
        if finite[r].all():
            reason = f"duplicate record for family {echo(r, 0)}, individual {echo(r, 1)}"
        else:
            c = int(np.argmin(finite[r]))  # the first non-finite trait
            reason = f"t{c + 1} must be finite, got {echo(r, c + 2)}"
        raise InvalidMatrix(f"{path}:{line(r)}: {reason}")
    sizes = np.bincount(family)
    odd = np.flatnonzero(sizes != sizes[0])
    if odd.size:
        j = odd[0]
        r = np.sort(first)[j]  # the record on which family j first appears
        raise UnbalancedDesign(f"{path}: family {echo(r, 0)} has {sizes[j]} members, "
                               f"family {echo(0, 0)} has {sizes[0]}")
    grouped = values[np.argsort(family, kind="stable")].reshape(sizes.size, sizes[0], k)
    try:
        return FamilyDataset(grouped, grid, design)
    except GeneconError as exc:  # too few families or members
        raise type(exc)(f"{path}: {exc}") from exc


# What both field readers return: the ids (N, 2), the traits (N, K), field c of
# record r as a message echoes it (`brief_repr`), and the line record r starts on.
_Fields = tuple[np.ndarray, np.ndarray, Callable[[int, int], str], Callable[[int], int]]

# "\x00": numpy drops trailing NULs from strings; "\x1c"-"\x1f": np.loadtxt
# strips them around a number where float() does not
_BULK_HAZARDS = ('"', "\x00", "\x1c", "\x1d", "\x1e", "\x1f")


def _bulk_fields(path: str | Path, k: int) -> _Fields | None:
    """The fields of ``path`` parsed in bulk, or None where `_row_fields`
    might split or convert them differently, or reject one.

    On nonblank lines free of quotes, CRs and `_BULK_HAZARDS`, np.loadtxt
    splits fields as the csv module does and reads a number to the same bits
    as float(); a number only float() accepts (``1_0``, other scripts' digits)
    fails np.loadtxt and so goes to the row reader.
    """
    with open(path, "rb") as fh:
        try:
            text = fh.read().decode("utf-8-sig")
        except UnicodeDecodeError:
            return None
    if any(c in text for c in _BULK_HAZARDS):
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    commas = text.count(",")
    lines = text.split("\n")  # not splitlines: csv ends rows only at CR and LF
    del text  # the lines hold a second copy; dropping this one lowers the peak memory
    if [h.strip() for h in lines[0].split(",")] != _csv_header(k):
        return None
    rows = [line for line in lines[1:] if line]
    # every row holds at least K + 1 commas or the trait parse fails, so this
    # count leaves exactly K + 1 in each
    if (not rows or commas != (k + 1) * (len(rows) + 1)
            or max(map(len, lines)) > csv.field_size_limit()):
        return None
    try:
        values = np.loadtxt(rows, delimiter=",", comments=None, usecols=range(2, k + 2), ndmin=2)
        ids = np.loadtxt(rows, dtype=str, delimiter=",", comments=None, usecols=(0, 1), ndmin=2)
    except ValueError:
        return None

    def line(r: int) -> int:  # nonblank lines are the header, then the records
        return [i for i, text in enumerate(lines) if text][r + 1] + 1

    return ids, values, lambda r, c: brief_repr(rows[r].split(",")[c]), line


def _csv_header(k: int) -> list[str]:
    return ["family", "individual"] + [f"t{i + 1}" for i in range(k)]


def _row_fields(path: str | Path, k: int) -> _Fields:
    """The fields of ``path`` as the csv module splits them and float() reads
    them, or the error that names the first field at fault."""
    expected = _csv_header(k)
    records, traits, lines = [], [], []
    # utf-8-sig drops the byte-order mark spreadsheet programs put first
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip() for h in header] != expected:
                got = ",".join(header) if header else "<empty>"  # on one line, as errors are
                raise InvalidMatrix(f"{path}: expected header {','.join(expected)}, got "
                                    + brief(got.replace("\r", "\\r").replace("\n", "\\n")))
            # a quoted field may span lines; an error names the line its record starts on
            next_line = reader.line_num + 1
            for row in reader:
                line, next_line = next_line, reader.line_num + 1
                if not row:
                    continue
                if len(row) != k + 2:
                    raise InvalidMatrix(f"{path}:{line}: expected {k + 2} fields, got {len(row)}")
                try:
                    traits.append([float(x) for x in row[2:]])
                except ValueError as exc:
                    raise InvalidMatrix(f"{path}:{line}: {brief(str(exc))}") from exc
                records.append(row)
                lines.append(line)
        except csv.Error as exc:
            raise InvalidMatrix(f"{path}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError:
            with open(path, "rb") as raw:  # a newline byte never sits inside a UTF-8 sequence
                for line_num, line in enumerate(raw, start=1):
                    try:
                        line.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise InvalidMatrix(f"{path}:{line_num}: {exc}") from exc
            raise
    ids = np.array([row[:2] for row in records], dtype=object).reshape(-1, 2)
    values = np.array(traits, dtype=float).reshape(-1, k)
    return ids, values, lambda r, c: brief_repr(records[r][c]), lines.__getitem__


def save_family_csv(data: FamilyDataset, path: str | Path) -> None:
    """Write a dataset in the same CSV layout `load_family_csv` reads."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(data.n_traits))
        for j in range(data.n_families):
            for i in range(data.family_size):
                writer.writerow(
                    [f"F{j + 1}", f"I{i + 1}"] + [repr(float(x)) for x in data.values[j, i]]
                )
