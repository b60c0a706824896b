"""Model-space / nearly-null-space partitions, selection responses, and
subspace distances.

The model space is the span of the top-J eigenvectors of G; its orthogonal
complement, the nearly null space, is re-expressed in a simplicity basis so
that low-variance directions can be read off in interpretable form. Expected
selection responses follow the Breeder's equation: response = G (G+E)^-1 s,
or G beta when the gradient beta is given directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (GMatrix, SymMatrix, _ReadOnlyArrays, _ties, finite_reals, json_int, reals,
                   symmetric_eigen)
from .errors import DimensionMismatch, InvalidMatrix, SingularPhenotypicCovariance
from .parallel import ordered_map
from .simplicity import SimplicityBasis, SimplicityMeasure, _simplicity_vectors

CONDITION_LIMIT = 1e12


@dataclass(frozen=True, eq=False)
class SelectionVectors(_ReadOnlyArrays):
    """Selection gradient, differential, and the expected response they imply.

    ``differential`` is None when only the gradient is known (no E supplied).
    """

    gradient: np.ndarray
    response: np.ndarray
    response_norm: float
    differential: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class VarianceShares(_ReadOnlyArrays):
    """Per-vector response norms and their normalized proportions."""

    norms: np.ndarray
    proportions: np.ndarray
    zero_total: bool = False


@dataclass(frozen=True, eq=False)
class SubspacePartition(_ReadOnlyArrays):
    """J-dimensional model space plus simplicity basis of the complement.

    ``g`` and ``measure`` are what the partition was computed from. The model
    PCs are read from G: ``model_vectors`` and ``model_eigenvalues`` are
    read-only views of its leading J eigenvectors and eigenvalues, so no
    partition holds model rows that are not G's. The combined basis (model
    eigenvectors followed by nearly-null simplicity vectors) is orthonormal
    in R^K. Per-vector ``scores``, ``response_norms`` and ``proportions`` run
    over that combined basis. The model/null variance fractions split the
    total response-norm mass of the eigenbasis at J, which does not depend on
    the basis chosen for either subspace.
    """

    g: GMatrix
    measure: SimplicityMeasure
    j: int
    null_basis: SimplicityBasis     # K - J simplicity-ordered vectors
    scores: np.ndarray              # (K,) simplicity score of every basis vector
    response_norms: np.ndarray      # (K,) ||G b|| per basis vector
    proportions: np.ndarray         # (K,) norms normalized to sum 1
    model_variance_fraction: float
    null_variance_fraction: float
    zero_variance: bool
    boundary_tie: bool              # eigenvalue J ties eigenvalue J+1 within tolerance

    @property
    def model_vectors(self) -> np.ndarray:
        """(J, K) rows: G's leading J eigenvectors."""
        return self.g.eig.eigenvectors.T[:self.j]

    @property
    def model_eigenvalues(self) -> np.ndarray:
        """(J,) G's leading J eigenvalues."""
        return self.g.eig.eigenvalues[:self.j]

    @property
    def dim(self) -> int:
        return self.g.dim

    @property
    def null_dim(self) -> int:
        return len(self.null_basis)

    def combined_basis(self) -> np.ndarray:
        """(K, K) rows: model eigenvectors first, then null simplicity vectors."""
        return np.vstack([self.model_vectors, self.null_basis.vectors])


def response_to_selection(g: GMatrix, beta) -> SelectionVectors:
    """Expected response G beta for a selection gradient beta."""
    b = finite_reals(beta, "selection gradient", (g.dim,))
    response = g.matrix.entries @ b
    return SelectionVectors(b, response, float(np.linalg.norm(response)))


def _solve_phenotypic(g: GMatrix, e: SymMatrix, rhs: np.ndarray) -> np.ndarray:
    """(G+E)^-1 rhs via the eigendecomposition, guarding definiteness and condition."""
    if e.dim != g.dim:
        raise DimensionMismatch(f"E is {e.dim}-dimensional, G is {g.dim}-dimensional")
    total = SymMatrix(g.matrix.entries + e.entries)
    eig = symmetric_eigen(total)
    lam_max, lam_min = eig.eigenvalues[0], eig.eigenvalues[-1]
    if lam_min <= 0.0 or lam_max / lam_min > CONDITION_LIMIT:
        raise SingularPhenotypicCovariance(
            f"G + E must be positive definite with condition number at most "
            f"{CONDITION_LIMIT:.0e}; its eigenvalues span [{lam_min:.3e}, {lam_max:.3e}]"
        )
    v, lam = eig.eigenvectors, eig.eigenvalues
    return v @ ((v.T @ rhs) / (lam if rhs.ndim == 1 else lam[:, None]))


def breeders_response(g: GMatrix, e: SymMatrix, s) -> SelectionVectors:
    """Breeder's equation: response = G (G+E)^-1 s, with the gradient back-filled."""
    diff = finite_reals(s, "selection differential", (g.dim,))
    beta = _solve_phenotypic(g, e, diff)
    response = g.matrix.entries @ beta
    return SelectionVectors(beta, response, float(np.linalg.norm(response)), differential=diff)


def heritability_matrix(g: GMatrix, e: SymMatrix) -> np.ndarray:
    """Multivariate heritability operator G (G+E)^-1 (not symmetric in general)."""
    return _solve_phenotypic(g, e, g.matrix.entries.T).T


def variance_proportions(g: GMatrix, basis) -> VarianceShares:
    """Response norms ||G b|| per vector of an (L, K) ``basis``, normalized to proportions.

    For the eigenbasis the norms are the eigenvalues, so the proportions
    coincide with eigenvalue shares; for any other orthonormal basis they are
    the genuinely basis-dependent response-norm shares.
    """
    b = reals(basis, "basis", (None, g.dim))
    _require_orthonormal(b, "basis")
    norms = np.linalg.norm(b @ g.matrix.entries.T, axis=1)
    total = float(norms.sum())
    if total <= 0.0:
        return VarianceShares(norms, np.zeros_like(norms), zero_total=True)
    return VarianceShares(norms, norms / total, zero_total=False)


def partition(g: GMatrix, j: int, measure: SimplicityMeasure) -> SubspacePartition:
    """Split trait space at J: top-J eigenvectors vs simplicity basis of the rest.

    A tie between eigenvalues J and J+1 makes the split ill-defined; it is
    flagged (``boundary_tie``) rather than rejected.
    """
    k, j = g.dim, json_int(j, "j")
    if not 0 <= j <= k:
        raise ValueError(f"model dimension must be in [0, {k}], got {j}")
    if measure.dim != k:
        raise DimensionMismatch(f"measure is {measure.dim}-dimensional, G is {k}-dimensional")

    lam, v = g.eig.eigenvalues, g.eig.eigenvectors
    lam_mat = measure.lambda_matrix.entries
    # G's trailing eigenvectors are orthonormal already, and G b = V (lam * V'b)
    # with V'b = (0, a) for a null vector b = V_{J:} a
    null_vectors, null_scores, a = _simplicity_vectors(v[:, j:], lam_mat)
    norms = np.concatenate([np.abs(lam[:j]), np.linalg.norm(lam[j:, None] * a, axis=0)])
    total = float(lam.sum())
    zero = total <= 0.0 or not norms.any()

    return SubspacePartition(
        g=g,
        measure=measure,
        j=j,
        null_basis=SimplicityBasis(null_vectors, null_scores, bool(_ties(null_scores).any())),
        scores=np.concatenate([np.sum(v[:, :j] * (lam_mat @ v[:, :j]), axis=0), null_scores]),
        response_norms=norms,
        proportions=np.zeros(k) if zero else norms / norms.sum(),
        model_variance_fraction=0.0 if zero else float(lam[:j].sum() / total),
        null_variance_fraction=0.0 if zero else float(lam[j:].sum() / total),
        zero_variance=zero,
        boundary_tie=bool(0 < j < k and _ties(lam)[j - 1]),
    )


def sweep_partitions(g: GMatrix, measure: SimplicityMeasure) -> list[SubspacePartition]:
    """Partitions for every J from 0 to K, in order."""
    return ordered_map(lambda j: partition(g, j, measure), range(g.dim + 1))


def _require_orthonormal(b: np.ndarray, what: str) -> None:
    """Raise unless the rows of ``b`` are finite and orthonormal within 1e-8."""
    ok = np.isfinite(b).all() and np.abs(b @ b.T - np.eye(len(b))).max(initial=0.0) <= 1e-8
    if not ok:
        raise InvalidMatrix(f"{what} rows are not orthonormal within 1e-8")


def _canonical_distances(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """L - ||U'W||_F^2, floored at 0, for (..., L, K) stacks of orthonormal row sets."""
    cross = u @ np.swapaxes(w, -1, -2)
    return np.maximum(u.shape[-2] - np.sum(cross * cross, axis=(-2, -1)), 0.0)


def canonical_angle_distance(u, w) -> float:
    """Squared subspace distance: sum of squared sines of the canonical angles.

    Equals L - ||U'W||_F^2 for orthonormal bases U, W of two L-dimensional
    subspaces of R^K, each given as (L, K) rows, and lies in [0, L].
    """
    ub = reals(u, "first basis", (None, None))
    wb = reals(w, "second basis", ub.shape)
    _require_orthonormal(ub, "first basis")
    _require_orthonormal(wb, "second basis")
    return float(_canonical_distances(ub, wb))
