"""Foundational numeric types: trait grids, symmetric matrices, and a
symmetric eigensolver with negative-eigenvalue clipping.

Eigendecompositions come from LAPACK through ``numpy.linalg.eigh``. A fixed
ordering and sign convention on top of it makes results identical run to
run for the same numpy version and LAPACK build.

The symmetry check and these conventions run on (K, K) matrices and on
(reps, K, K) stacks alike; a stack's error names its first failing replicate.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DimensionMismatch, InvalidGrid, InvalidMatrix

SYMMETRY_RTOL = 1e-10          # allowed asymmetry relative to max |entry|
DEGENERACY_RTOL = 1e-9         # adjacent gap at most this times max |value| is a tie
PSD_RTOL = 1e-9                # allowed negative eigenvalue relative to max |eigenvalue|
TOLERANCES = {"symmetry_rtol": SYMMETRY_RTOL, "degeneracy_rtol": DEGENERACY_RTOL,
              "psd_rtol": PSD_RTOL}  # what every report's provenance records


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float, copy=True)
    out.flags.writeable = False
    return out


class _ReadOnlyArrays:
    """Base of frozen results: stores each ``np.ndarray`` field, a list too, read-only as floats."""

    def __post_init__(self):
        for f in fields(self):  # annotations are strings here (PEP 563)
            value = getattr(self, f.name)
            if f.type in ("np.ndarray", "np.ndarray | None") and value is not None:
                object.__setattr__(self, f.name, _readonly(value))


def brief(text: str) -> str:
    """Echoed input text, cut at 80 characters so that a message stays one short line."""
    return text if len(text) <= 80 else text[:77] + "..."


def brief_repr(value) -> str:
    """A repr of a rejected input, shortened by ``reprlib`` and cut by :func:`brief`."""
    return brief(reprlib.repr(value))


def _known_keys(payload: dict, known: set[str]) -> dict:
    """``payload`` if ``known`` holds each of its keys; else ValueError naming the least other."""
    extra = payload.keys() - known
    if extra:
        raise ValueError(f"unknown key {brief_repr(min(extra, key=str))}")
    return payload


def json_int(value, what: str) -> int:
    """``value`` as an ``int``, numpy integers and integral reals too; bools and the rest raise."""
    if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
        value = int(value) if abs(value) < math.inf and int(value) == value else value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {brief_repr(value)}")
    return int(value)


def json_number(value, what: str) -> float:
    """A finite number read from JSON; bools, strings, containers, NaN and ±inf are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {brief_repr(value)}")
    try:
        number = float(value)
    except OverflowError as exc:
        raise ValueError(f"{what} is out of range: {exc}") from exc
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {brief_repr(value)}")
    return number


def json_numbers(value, what: str) -> np.ndarray:
    """A flat list of numbers read from JSON, as a 1-D float array; nested lists are rejected."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of numbers, got {brief_repr(value)}")
    entry = f"each entry of {what}"
    return np.array([json_number(x, entry) for x in value], dtype=float)


def _first(bad: np.ndarray) -> tuple[tuple[int, ...], str]:
    """Index of the first True flag, one per matrix, and ``replicate r: `` ('' for one matrix)."""
    if bad.ndim == 0:
        return (), ""
    r = int(np.argmax(bad))
    return (r,), f"replicate {r}: "


def _magnitude(a: np.ndarray, axis) -> np.ndarray:
    """Each stack member's largest |entry| over ``axis``: every tolerance is an RTOL times it."""
    return np.abs(a).max(axis=axis, initial=0.0)


def _check_psd(eigenvalues: np.ndarray, what: str, error: type = InvalidMatrix) -> None:
    """Raise ``error`` if the smallest eigenvalue is below -``PSD_RTOL`` times the largest |one|."""
    low = float(eigenvalues.min(initial=0.0))
    if low < -PSD_RTOL * _magnitude(eigenvalues, -1):
        raise error(f"{what} is not positive semidefinite: min eigenvalue {low:.3e}")


def _symmetrized(m: np.ndarray) -> np.ndarray:
    """(M + M')/2 of each matrix of a (..., K, K) stack, after checking it.

    Each must be finite and symmetric within ``SYMMETRY_RTOL`` times its own
    largest entry magnitude.
    """
    mt = np.swapaxes(m, -1, -2)
    finite = np.isfinite(m).all(axis=(-2, -1))
    if not finite.all():
        raise InvalidMatrix(_first(~finite)[1] + "matrix entries must be finite")
    scale = _magnitude(m, (-2, -1))
    asym = _magnitude(m - mt, (-2, -1))
    bad = asym > SYMMETRY_RTOL * scale
    if bad.any():
        i, where = _first(bad)
        raise InvalidMatrix(
            f"{where}matrix is asymmetric: max |M - M'| = {asym[i]:.3e} exceeds "
            f"{SYMMETRY_RTOL:.0e} * {scale[i]:.3e}"
        )
    return (m + mt) / 2.0


def _ties(values: np.ndarray) -> np.ndarray:
    """(..., L-1) flags of the adjacent pairs of a descending (..., L) array that tie.

    Pair i ties when its gap is at most ``DEGENERACY_RTOL`` times its array's
    largest |value|, so an all-zero array ties throughout.
    """
    return -np.diff(values, axis=-1) <= DEGENERACY_RTOL * _magnitude(values, -1)[..., None]


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`symmetric_eigen`'s values and vectors over a (..., K, K) stack."""
    lam, v = np.linalg.eigh(m)
    order = np.argsort(-lam, axis=-1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=-1)
    # reorder the rows of V', so V keeps LAPACK's column-major layout: BLAS
    # calls on it downstream round the same way for one matrix and a stack
    v = np.swapaxes(np.take_along_axis(np.swapaxes(v, -1, -2), order[..., None], axis=-2), -1, -2)

    big = np.abs(v) > 1e-8
    leading = np.where(big & (np.cumsum(big, axis=-2) == 1), v, 0.0).sum(axis=-2)
    return lam, v * np.where(leading < 0.0, -1.0, 1.0)[..., None, :]


@dataclass(frozen=True)
class TraitGrid:
    """Ordered measurement coordinates (ages, days, temperatures) for the K traits."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).reshape(-1)
        if pts.size < 2:
            raise InvalidGrid(f"need at least 2 measurement points, got {pts.size}")
        if not np.all(np.isfinite(pts)):
            raise InvalidGrid("measurement points must be finite")
        if not math.isfinite(float(pts[-1]) - float(pts[0])):
            raise InvalidGrid(f"span from {pts[0]:g} to {pts[-1]:g} overflows")
        if not np.all(pts[1:] > pts[:-1]):
            raise InvalidGrid("measurement points must be strictly increasing")
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def size(self) -> int:
        return int(self.points.size)

    @property
    def gaps(self) -> np.ndarray:
        return np.diff(self.points)

    @property
    def min_gap(self) -> float:
        return float(self.gaps.min())

    def to_payload(self) -> dict:
        return {"points": self.points.tolist()}

    @classmethod
    def from_payload(cls, payload: dict) -> "TraitGrid":
        if not isinstance(payload, dict):
            raise InvalidGrid(f"grid payload must be a JSON object, got {type(payload).__name__}")
        if "points" not in payload:
            raise InvalidGrid("grid payload missing 'points'")
        try:
            points = json_numbers(_known_keys(payload, {"points"})["points"], "points")
        except ValueError as exc:
            raise InvalidGrid(f"malformed grid payload: {exc}") from exc
        return cls(points)

    def __eq__(self, other):
        return isinstance(other, TraitGrid) and np.array_equal(self.points, other.points)


@dataclass(frozen=True)
class SymMatrix:
    """Exactly symmetric K x K matrix.

    Input may be asymmetric up to ``SYMMETRY_RTOL`` relative to the largest
    entry magnitude; the stored form is the symmetrized average (M + M')/2.
    Anything worse is rejected rather than silently repaired.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidMatrix(f"expected a square matrix, got shape {m.shape}")
        object.__setattr__(self, "entries", _readonly(_symmetrized(m)))

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])

    def to_payload(self) -> dict:
        return {"dim": self.dim, "entries": self.entries.reshape(-1).tolist()}

    @classmethod
    def from_payload(cls, payload: dict) -> "SymMatrix":
        if not isinstance(payload, dict):
            raise InvalidMatrix(
                f"matrix payload must be a JSON object, got {type(payload).__name__}"
            )
        try:
            dim = json_int(_known_keys(payload, {"dim", "entries"})["dim"], "dim")
            raw = json_numbers(payload["entries"], "entries")
        except KeyError as exc:
            raise InvalidMatrix(f"matrix payload missing {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise InvalidMatrix(f"malformed matrix payload: {exc}") from exc
        if dim < 1:
            raise InvalidMatrix(f"matrix payload dim must be at least 1, got {dim}")
        if raw.size != dim * dim:
            raise InvalidMatrix(
                f"matrix payload has {raw.size} entries, "
                f"expected dim*dim = {brief_repr(dim * dim)}"
            )
        return cls(raw.reshape(dim, dim))

    def __eq__(self, other):
        return isinstance(other, SymMatrix) and np.array_equal(self.entries, other.entries)


@dataclass(frozen=True, eq=False)
class EigenDecomposition(_ReadOnlyArrays):
    """Eigenvalues in descending order with orthonormal eigenvector columns.

    ``degenerate`` is set when two adjacent eigenvalues tie (see :func:`_ties`),
    in which case the affected eigenvectors are only defined up to rotation
    within their eigenspace.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # column k is the eigenvector for eigenvalues[k]
    degenerate: bool = False


def symmetric_eigen(m: SymMatrix) -> EigenDecomposition:
    """Eigendecompose a symmetric matrix with LAPACK (``numpy.linalg.eigh``).

    Eigenvalues are sorted descending with a stable tie-break, and each
    eigenvector is flipped so its first component of magnitude above 1e-8 is
    positive, so the result does not depend on LAPACK's sign choices.
    ``degenerate`` is set when two adjacent eigenvalues tie (see :func:`_ties`).
    """
    if not isinstance(m, SymMatrix):
        m = SymMatrix(np.asarray(m, dtype=float))
    lam, v = _eigh(m.entries)
    return EigenDecomposition(lam, v, degenerate=bool(_ties(lam).any()))


@dataclass(frozen=True, eq=False)
class GMatrix:
    """Genetic covariance matrix with its cached eigendecomposition.

    Positive semidefinite by :func:`_check_psd`; build one from a possibly
    indefinite estimate with :func:`clip_negative_eigenvalues`.
    """

    matrix: SymMatrix
    eig: EigenDecomposition
    grid: TraitGrid | None = None
    clipped_indices: tuple[int, ...] = field(default=())

    def __post_init__(self):
        _check_psd(self.eig.eigenvalues, "G")
        if self.grid is not None and self.grid.size != self.matrix.dim:
            raise DimensionMismatch(
                f"grid has {self.grid.size} points but matrix is {self.matrix.dim}-dimensional"
            )

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.eig.eigenvalues


def _clip_decomposition(
    source: SymMatrix,
    eig: EigenDecomposition,
    tol: float,
    grid: TraitGrid | None,
) -> GMatrix:
    """Zero the eigenvalues of ``eig`` (the decomposition of ``source``) below ``tol``."""
    below = eig.eigenvalues < tol
    if not below.any():
        return GMatrix(source, eig, grid=grid)

    clipped = np.where(below, 0.0, eig.eigenvalues)
    v = eig.eigenvectors
    new_eig = EigenDecomposition(clipped, v, degenerate=bool(_ties(clipped).any()))
    return GMatrix(
        SymMatrix((v * clipped) @ v.T),
        new_eig,
        grid=grid,
        clipped_indices=tuple(int(i) for i in np.nonzero(below)[0]),
    )


def clip_negative_eigenvalues(
    m: SymMatrix | GMatrix,
    tol: float = 0.0,
    grid: TraitGrid | None = None,
) -> GMatrix:
    """Zero out eigenvalues below ``tol`` and rebuild the matrix.

    Eigenvectors are untouched; only the spectrum changes, so the rebuilt
    matrix is V diag(clipped) V'. Passing an already-clipped :class:`GMatrix`
    whose spectrum clears ``tol`` returns it unchanged, which makes the
    operation exactly idempotent.
    """
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"clip tolerance must be finite and nonnegative, got {tol}")
    if isinstance(m, GMatrix):
        if grid is None:
            grid = m.grid
        if grid is m.grid and not (m.eigenvalues < tol).any():
            return m
        return _clip_decomposition(m.matrix, m.eig, tol, grid)
    source = m if isinstance(m, SymMatrix) else SymMatrix(np.asarray(m, dtype=float))
    return _clip_decomposition(source, symmetric_eigen(source), tol, grid)
