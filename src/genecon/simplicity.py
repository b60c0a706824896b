"""Quadratic simplicity measures and simplicity-ordered bases of subspaces.

A measure is a nonnegative definite quadratic form: the score of a unit
vector v is v' L v, higher meaning simpler. The simplicity basis of a
subspace spanned by the orthonormal columns of P comes from the eigenvectors
a_1, ..., a_L of P' L P: the vectors P a_i, ordered by descending eigenvalue,
successively maximize the score subject to orthogonality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (PSD_RTOL, SymMatrix, TraitGrid, _ReadOnlyArrays, _check_psd, _eigh,
                   _in_range, _symmetrized, _ties, json_int, real, reals, symmetric_eigen)
from .errors import GridTooSmall, InvalidMatrix, NotUnitVector, RankDeficientSubspace

FIRST_DIFFERENCE = "first-difference"
SECOND_DIFFERENCE = "second-difference"
SPARSENESS = "sparseness"
CUSTOM = "custom"

_KINDS = (FIRST_DIFFERENCE, SECOND_DIFFERENCE, SPARSENESS, CUSTOM)
MEASURE_ALIASES = {"d1": FIRST_DIFFERENCE, "d2": SECOND_DIFFERENCE, "sparse": SPARSENESS}
_ORTHO_TOL = 1e-12  # a row's QR residual at most this times its norm is dependent


@dataclass(frozen=True)
class SimplicityMeasure:
    """Quadratic form scoring how simple a direction is (big = simple)."""

    lambda_matrix: SymMatrix
    score_upper_bound: float
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        bound = real(self.score_upper_bound, "score_upper_bound")
        object.__setattr__(self, "score_upper_bound", bound)
        lam = symmetric_eigen(self.lambda_matrix).eigenvalues
        _check_psd(lam, "simplicity form")
        if self.kind == FIRST_DIFFERENCE:  # its scores span [0, 4], within PSD_RTOL
            _in_range(float(lam.max()), "largest first-difference form eigenvalue", 0,
                      4.0 * (1.0 + PSD_RTOL), InvalidMatrix)

    @property
    def dim(self) -> int:
        return self.lambda_matrix.dim


@dataclass(frozen=True, eq=False)
class SimplicityBasis(_ReadOnlyArrays):
    """Orthonormal vectors of a subspace ordered simplest first.

    ``vectors[i]`` is the i-th simplest direction, ``scores[i]`` its quadratic
    score. ``degenerate`` warns that two adjacent scores tie (their gap is at
    most ``DEGENERACY_RTOL`` times the largest |score|), in which case only the
    span of the tied vectors is well defined.
    """

    vectors: np.ndarray  # shape (L, K), rows are unit vectors
    scores: np.ndarray   # shape (L,), non-increasing
    degenerate: bool = False

    def __len__(self) -> int:
        return int(self.vectors.shape[0])


def first_difference_penalty(grid: TraitGrid) -> SymMatrix:
    """Tridiagonal form of the gap-weighted squared first differences.

    v' L0 v = sum_j (v_j - v_{j-1})^2 / (t_j - t_{j-1}); zero exactly when v
    is constant.
    """
    d = np.diff(np.eye(grid.size), axis=0)  # row j is e_{j+1} - e_j
    return SymMatrix(d.T @ (d / grid.gaps[:, None]))


def first_difference_measure(grid: TraitGrid) -> SimplicityMeasure:
    """Roughness-complement measure 4I - min_gap * L0, scored in [0, 4].

    The smallest grid gap rescales the first-difference penalty so that the
    score of any unit vector stays within [0, 4]; a constant vector scores
    exactly 4.
    """
    penalty = first_difference_penalty(grid)
    k = grid.size
    lam = 4.0 * np.eye(k) - grid.min_gap * penalty.entries
    return SimplicityMeasure(SymMatrix(lam), score_upper_bound=4.0, kind=FIRST_DIFFERENCE)


def second_difference_penalty(grid: TraitGrid) -> SymMatrix:
    """Curvature penalty: Riemann sum of squared second divided differences.

    At each interior point the local second-derivative estimate is weighted by
    the midpoint gap (t_{j+1} - t_{j-1})/2, so the form converges to the
    integrated squared second derivative under grid refinement. Constant and
    linear vectors are annihilated.
    """
    t = grid.points
    k = json_int(grid.size, "number of points", 3, error=GridTooSmall)
    m = np.zeros((k, k))
    for j in range(1, k - 1):
        span = t[j + 1] - t[j - 1]
        c = np.zeros(k)
        c[j - 1] = 2.0 / (span * (t[j] - t[j - 1]))
        c[j + 1] = 2.0 / (span * (t[j + 1] - t[j]))
        c[j] = -(c[j - 1] + c[j + 1])
        m += (span / 2.0) * np.outer(c, c)
    return SymMatrix(m)


def second_difference_measure(grid: TraitGrid) -> SimplicityMeasure:
    """Curvature penalty converted to a big-is-simple measure."""
    return custom_measure(second_difference_penalty(grid), small_is_simple=True,
                          kind=SECOND_DIFFERENCE)


def sparseness_measure(k: int) -> SimplicityMeasure:
    """Spread-around-the-mean form sum_i (v_i - mean(v))^2, scored in [0, 1].

    Constant vectors score 0; mean-zero unit vectors score 1.
    """
    k = json_int(k, "k", 2)
    lam = np.eye(k) - np.full((k, k), 1.0 / k)
    return SimplicityMeasure(SymMatrix(lam), score_upper_bound=1.0, kind=SPARSENESS)


def custom_measure(
    lambda_matrix: SymMatrix,
    small_is_simple: bool = False,
    kind: str = CUSTOM,
) -> SimplicityMeasure:
    """Wrap a user-supplied quadratic form as a simplicity measure.

    If the raw form scores simple vectors LOW (``small_is_simple``), it is
    replaced by c*I - L with c the largest eigenvalue of L, flipping the
    ordering while preserving the eigenvectors.
    """
    if small_is_simple:
        top = float(symmetric_eigen(lambda_matrix).eigenvalues[0])
        flipped = top * np.eye(lambda_matrix.dim) - lambda_matrix.entries
        lambda_matrix = SymMatrix(flipped)
    bound = float(symmetric_eigen(lambda_matrix).eigenvalues[0])
    return SimplicityMeasure(lambda_matrix, score_upper_bound=bound, kind=kind)


def simplicity_score(v: np.ndarray, measure: SimplicityMeasure) -> float:
    """Score v' L v of a unit vector."""
    v = reals(v, "v", (measure.dim,))
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= 1e-8:
        raise NotUnitVector(f"expected a unit vector, got norm {norm!r}")
    return float(v @ measure.lambda_matrix.entries @ v)


def _orthonormalize(rows: np.ndarray) -> np.ndarray:
    """(K, L) orthonormal columns spanning (L, K) rows: Householder QR, Gram-Schmidt's signs."""
    q, r = np.linalg.qr(rows.T)
    diag = np.diagonal(r)
    # |r[i, i]| is row i's distance from its predecessors' span; rows past K have none
    residuals = np.zeros(len(rows))
    residuals[: diag.size] = np.abs(diag)
    deficient = residuals <= _ORTHO_TOL * np.linalg.norm(rows, axis=1)
    if deficient.any():
        i = int(np.argmax(deficient))
        raise RankDeficientSubspace(
            f"vector {i} lies in the span of its predecessors (residual {residuals[i]:.3e})"
        )
    return q * np.sign(diag)


def _simplicity_vectors(p: np.ndarray, lam: np.ndarray) -> tuple[np.ndarray, ...]:
    """Vectors (..., L, K), scores (..., L) and coordinates a (..., L, L), vectors' = p a.

    ``p`` is a (..., K, L) stack of orthonormal columns, ``lam`` the measure's form.
    """
    scores, a = _eigh(_symmetrized(np.swapaxes(p, -1, -2) @ lam @ p))
    return np.swapaxes(p @ a, -1, -2), scores, a


def simplicity_basis(subspace_basis: np.ndarray, measure: SimplicityMeasure) -> SimplicityBasis:
    """Simplicity-ordered orthonormal basis of span(subspace_basis).

    Args:
        subspace_basis: (L, K) rows spanning the subspace, so one vector v is
            passed as ``[v]``. Rows should already be near-orthonormal; they
            are re-orthonormalized by a Householder QR factorization before use.
        measure: quadratic simplicity measure on the ambient K-space.

    Returns:
        SimplicityBasis whose scores are the eigenvalues of P' L P. The first
        vector maximizes the score over unit vectors in the subspace; each
        later vector maximizes it subject to orthogonality to its
        predecessors.
    """
    basis = reals(subspace_basis, "subspace_basis", (None, measure.dim))
    vectors, scores, _ = _simplicity_vectors(_orthonormalize(basis), measure.lambda_matrix.entries)
    return SimplicityBasis(vectors, scores, degenerate=bool(_ties(scores).any()))


def measure_from_kind(kind: str, grid: TraitGrid) -> SimplicityMeasure:
    """Build one of the named measures on ``grid``; sparseness uses only its size."""
    kind = MEASURE_ALIASES.get(kind, kind)
    if kind == FIRST_DIFFERENCE:
        return first_difference_measure(grid)
    if kind == SECOND_DIFFERENCE:
        return second_difference_measure(grid)
    if kind == SPARSENESS:
        return sparseness_measure(grid.size)
    raise ValueError(f"unknown measure kind {kind!r}")
