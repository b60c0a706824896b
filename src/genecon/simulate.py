"""Family-structured phenotype simulation and the replicated estimation study.

Records follow y_ij = mu + g_ij + e_ij + eps_ij with the genetic deviation
split into a shared family effect and an individual remainder so that the
moment estimator recovers G in expectation: for half-siblings the family
effect carries G/4 and the remainder 3G/4 (c = 4); full siblings share G/2
(c = 2). Environmental deviations are N(0, E) and measurement noise is
isotropic N(0, sigma2 I), all independent.

Randomness is counter-based (Philox): each replicate has its own generator,
keyed by (seed, replicate), so a replicate's draws are reproducible and do
not depend on the order replicates run in. Normal variates use numpy's
ziggurat sampler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import GMatrix, SymMatrix, _eigh, _readonly, symmetric_eigen
from .errors import DimensionMismatch, GeneconError, InvalidCovariance
from .estimate import RELATEDNESS, FamilyDataset, _mean_squares, _raw_estimates, normalize_design
from .simplicity import SimplicityMeasure, _simplicity_vectors, simplicity_basis
from .spaces import _canonical_distances, _require_orthonormal

RNG_DESCRIPTION = "philox4x64 keyed by (seed, replicate); ziggurat normals (numpy Generator)"


def _psd_factor(matrix: SymMatrix, name: str) -> np.ndarray:
    """Factor A with A A' = matrix; tolerates (and zeroes) roundoff negatives."""
    eig = symmetric_eigen(matrix)
    lam = eig.eigenvalues
    scale = max(1.0, float(np.abs(lam).max()))
    if lam.min() < -1e-9 * scale:
        raise InvalidCovariance(
            f"{name} is not positive semidefinite: min eigenvalue {lam.min():.3e}"
        )
    return eig.eigenvectors * np.sqrt(np.clip(lam, 0.0, None))


@dataclass(frozen=True, eq=False)
class SimulationParams:
    """Generative model: mean, covariances, design shape, and the seed.

    E is factored once, here, into ``e_factor`` (A with A A' = E); an E that
    is not positive semidefinite raises :class:`InvalidCovariance`.
    """

    mu: np.ndarray
    g: GMatrix
    e: SymMatrix
    sigma2: float
    n_families: int
    family_size: int
    design: str
    seed: int
    e_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        k = self.g.dim
        if mu.size != k:
            raise DimensionMismatch(f"mu has length {mu.size}, G is {k}-dimensional")
        if self.e.dim != k:
            raise DimensionMismatch(f"E is {self.e.dim}-dimensional, G is {k}-dimensional")
        if self.sigma2 < 0.0:
            raise InvalidCovariance(f"sigma2 must be nonnegative, got {self.sigma2}")
        if self.n_families < 2 or self.family_size < 2:
            raise ValueError(
                f"need at least 2 families of 2 members, got "
                f"{self.n_families} x {self.family_size}"
            )
        object.__setattr__(self, "design", normalize_design(self.design))
        object.__setattr__(self, "mu", _readonly(mu))
        object.__setattr__(self, "seed", int(self.seed))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        object.__setattr__(self, "e_factor", _readonly(_psd_factor(self.e, "E")))

    @property
    def dim(self) -> int:
        return self.g.dim

    @property
    def relatedness(self) -> float:
        return RELATEDNESS[self.design]


def generate_dataset(params: SimulationParams, replicate: int = 0) -> FamilyDataset:
    """Draw one balanced family data set; bit-identical for identical inputs.

    All normals come from one generator keyed by (seed, replicate), in one
    draw of one row per family: K normals for the family effect, then 3K per
    member (genetic remainder, then environment, then measurement noise).
    Row j depends only on j, so a data set of N families is the first N
    families of any larger one with the same seed, replicate and family size.
    No matrix is factored here: G's factor comes from the checked PSD
    decomposition ``params.g`` carries (clipping only zeroes roundoff
    negatives), E's from ``params.e_factor``.
    """
    if replicate < 0:
        raise ValueError(f"replicate index must be nonnegative, got {replicate}")
    k = params.dim
    share = 1.0 / params.relatedness  # fraction of G carried by the shared family effect
    factor_g = params.g.eig.eigenvectors * np.sqrt(np.clip(params.g.eigenvalues, 0.0, None))
    factor_family = np.sqrt(share) * factor_g
    factor_resid = np.sqrt(1.0 - share) * factor_g
    noise_sd = float(np.sqrt(params.sigma2))

    key = np.array([params.seed, replicate], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    n, m = params.n_families, params.family_size
    z = gen.standard_normal((n, k + m * 3 * k))
    members = z[:, k:].reshape(n, m, 3, k)
    base = params.mu + z[:, :k] @ factor_family.T
    values = (
        base[:, None, :]
        + members[:, :, 0] @ factor_resid.T
        + members[:, :, 1] @ params.e_factor.T
        + noise_sd * members[:, :, 2]
    )
    return FamilyDataset(values, params.g.grid, params.design)


@dataclass(frozen=True, eq=False)
class StudySummary:
    """The replicated study as columns, with the true-parameter references and aggregates.

    Row r of each ``(reps, ...)`` array is replicate r. Responses use the
    estimated directions as selection gradients on the generating G. Vectors
    and responses are sign-aligned against replicate 0.
    """

    params: SimulationParams
    reps: int
    null_dim: int
    measure_kind: str
    min_raw_eigenvalues: np.ndarray       # (reps,) smallest eigenvalue of each raw G_hat
    simplest_vectors: np.ndarray          # (reps, K)
    null_pc_vectors: np.ndarray           # (reps, null_dim, K) eigenvectors J+1..K of G_hat
    simplest_responses: np.ndarray        # (reps, K)
    null_pc_responses: np.ndarray         # (reps, null_dim, K)
    simplest_response_norms: np.ndarray   # (reps,)
    null_pc_response_norms: np.ndarray    # (reps, null_dim)
    canonical_distances_sq: np.ndarray    # (reps,) from the true nearly null space
    true_null_pcs: np.ndarray             # (null_dim, K)
    true_simplest: np.ndarray             # (K,)
    true_simplest_response: np.ndarray
    true_pc_responses: np.ndarray         # (null_dim, K)
    simplest_norm_mean: float
    simplest_norm_sd: float
    pc_norm_means: np.ndarray             # (null_dim,)
    pc_norm_sds: np.ndarray
    negative_fraction: float
    min_eigenvalue_observed: float
    mean_canonical_distance_sq: float

    def __post_init__(self):
        for name, value in list(vars(self).items()):
            if isinstance(value, np.ndarray):
                object.__setattr__(self, name, _readonly(value))


def _signs(vectors: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """+1 or -1 per row, making each row's inner product with its reference row nonnegative."""
    return np.where(np.einsum("...k,...k->...", vectors, reference) < 0.0, -1.0, 1.0)


def run_study(
    params: SimulationParams,
    reps: int,
    measure: SimplicityMeasure,
    null_dim: int = 3,
) -> StudySummary:
    """Replicate the pipeline: generate, estimate, decompose, find the simplest vector, respond.

    Replicates are drawn one at a time, each from its own generator keyed by
    (seed, r), keeping only its mean squares. Each later stage is one call on
    (reps, ...) arrays: G_hat_raw = c (MSB - MSW) / n, its eigendecomposition
    (not clipped: clipping leaves the eigenvectors as they are), the
    simplicity bases, responses, norms and canonical distances. An error
    names the first failing replicate. Vectors are sign-aligned against the
    first replicate, since they are only defined up to sign.
    """
    if reps < 1:
        raise ValueError(f"need at least 1 replicate, got {reps}")
    k = params.dim
    if not 1 <= null_dim <= k - 1:
        raise ValueError(f"null dimension must be in [1, {k - 1}], got {null_dim}")
    if measure.dim != k:
        raise DimensionMismatch(f"measure is {measure.dim}-dimensional, traits are {k}")

    g_true = params.g.matrix.entries
    j = k - null_dim
    true_null_span = params.g.eig.eigenvectors.T[j:]
    true_simplest = simplicity_basis(true_null_span, measure).vectors[0]

    between = np.empty((reps, k, k))
    within = np.empty((reps, k, k))
    for r in range(reps):
        try:
            between[r], within[r] = _mean_squares(generate_dataset(params, r).values)
        except GeneconError as exc:
            exc.args = (f"replicate {r}: {exc}",)
            raise
    g_raw = _raw_estimates(between, within, params.family_size, params.relatedness)[3]

    eigenvalues, eigenvectors, _ = _eigh(g_raw)
    raw_minima = eigenvalues.min(axis=-1)
    null_pcs = np.swapaxes(eigenvectors[..., j:], -1, -2)
    simplest = _simplicity_vectors(null_pcs, measure.lambda_matrix.entries)[0][:, 0]
    # G x per vector (BLAS gemv) and each norm from x'x (BLAS dot), as for one
    # vector in np.linalg.norm: each replicate's numbers equal the public path's
    simplest_responses = (g_true @ simplest[:, :, None])[:, :, 0]
    simplest_norms = np.sqrt(
        simplest_responses[:, None, :] @ simplest_responses[:, :, None]
    )[:, 0, 0]
    pc_responses = null_pcs @ g_true.T
    pc_norms = np.linalg.norm(pc_responses, axis=-1)
    _require_orthonormal(null_pcs, "estimated nearly-null basis")
    _require_orthonormal(true_null_span, "true nearly-null basis")
    distances = _canonical_distances(null_pcs, true_null_span)

    s0 = _signs(simplest, simplest[0])[:, None]
    flips = _signs(null_pcs, null_pcs[0])[:, :, None]
    # align true references to the same conventions as the displayed replicates
    true_simplest = _signs(true_simplest, simplest[0]) * true_simplest
    true_pcs = _signs(true_null_span, null_pcs[0])[:, None] * true_null_span

    ddof = 1 if reps > 1 else 0
    return StudySummary(
        params=params,
        reps=reps,
        null_dim=null_dim,
        measure_kind=measure.kind,
        min_raw_eigenvalues=raw_minima,
        simplest_vectors=s0 * simplest,
        null_pc_vectors=flips * null_pcs,
        simplest_responses=s0 * simplest_responses,
        null_pc_responses=flips * pc_responses,
        simplest_response_norms=simplest_norms,
        null_pc_response_norms=pc_norms,
        canonical_distances_sq=distances,
        true_null_pcs=true_pcs,
        true_simplest=true_simplest,
        true_simplest_response=g_true @ true_simplest,
        true_pc_responses=true_pcs @ g_true.T,
        simplest_norm_mean=float(simplest_norms.mean()),
        simplest_norm_sd=float(simplest_norms.std(ddof=ddof)),
        pc_norm_means=pc_norms.mean(axis=0),
        pc_norm_sds=pc_norms.std(axis=0, ddof=ddof),
        negative_fraction=float(np.mean(raw_minima < 0.0)),
        min_eigenvalue_observed=float(raw_minima.min()),
        mean_canonical_distance_sq=float(np.mean(distances)),
    )
