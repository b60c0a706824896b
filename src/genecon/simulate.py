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

from dataclasses import dataclass, field, replace

import numpy as np

from .core import GMatrix, SymMatrix, _readonly, symmetric_eigen
from .errors import DimensionMismatch, InvalidCovariance
from .estimate import (
    RELATEDNESS,
    FamilyDataset,
    VarianceComponents,
    anova_estimate,
    normalize_design,
)
from .parallel import ordered_map
from .simplicity import SimplicityMeasure, simplicity_basis
from .spaces import canonical_angle_distance

RNG_DESCRIPTION = "philox4x64 keyed by (seed, replicate); ziggurat normals (numpy Generator)"

_MASK64 = (1 << 64) - 1


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

    key = [params.seed & _MASK64, replicate & _MASK64]
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
class ReplicateResult:
    """Per-replicate outputs of the estimation study.

    Response vectors are computed against the generating ("true") G, using the
    estimated directions as selection gradients.
    """

    components: VarianceComponents
    simplest_vector: np.ndarray            # (K,)
    null_pc_vectors: np.ndarray            # (null_dim, K) eigenvectors J+1..K of G_hat
    simplest_response: np.ndarray          # (K,)
    null_pc_responses: np.ndarray          # (null_dim, K)
    simplest_response_norm: float
    null_pc_response_norms: np.ndarray     # (null_dim,)
    min_raw_eigenvalue: float
    negative_min_eigenvalue: bool
    canonical_distance_sq: float

    def __post_init__(self):
        for name in ("simplest_vector", "null_pc_vectors", "simplest_response",
                     "null_pc_responses", "null_pc_response_norms"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


@dataclass(frozen=True, eq=False)
class StudySummary:
    """All replicates plus the true-parameter references and aggregates."""

    params: SimulationParams
    reps: int
    null_dim: int
    measure_kind: str
    replicates: tuple[ReplicateResult, ...]
    true_null_pcs: np.ndarray          # (null_dim, K)
    true_simplest: np.ndarray          # (K,)
    true_simplest_response: np.ndarray
    true_pc_responses: np.ndarray      # (null_dim, K)
    simplest_norm_mean: float
    simplest_norm_sd: float
    pc_norm_means: np.ndarray          # (null_dim,)
    pc_norm_sds: np.ndarray
    negative_fraction: float
    min_eigenvalue_observed: float
    mean_canonical_distance_sq: float

    def __post_init__(self):
        for name in ("true_null_pcs", "true_simplest", "true_simplest_response",
                     "true_pc_responses", "pc_norm_means", "pc_norm_sds"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    def simplest_vectors(self) -> np.ndarray:
        return np.array([r.simplest_vector for r in self.replicates])

    def null_pc_vectors(self) -> np.ndarray:
        return np.array([r.null_pc_vectors for r in self.replicates])

    def simplest_responses(self) -> np.ndarray:
        return np.array([r.simplest_response for r in self.replicates])

    def null_pc_responses(self) -> np.ndarray:
        return np.array([r.null_pc_responses for r in self.replicates])


def _one_replicate(
    params: SimulationParams,
    r: int,
    null_dim: int,
    measure: SimplicityMeasure,
    true_null_span: np.ndarray,
    g_true: np.ndarray,
) -> ReplicateResult:
    data = generate_dataset(params, replicate=r)
    components = anova_estimate(data)
    null_pcs = components.g_hat.eig.eigenvectors.T[params.dim - null_dim:]
    simplest = simplicity_basis(null_pcs, measure).vectors[0]
    simplest_response = g_true @ simplest
    pc_responses = null_pcs @ g_true.T
    return ReplicateResult(
        components=components,
        simplest_vector=simplest,
        null_pc_vectors=null_pcs,
        simplest_response=simplest_response,
        null_pc_responses=pc_responses,
        simplest_response_norm=float(np.linalg.norm(simplest_response)),
        null_pc_response_norms=np.linalg.norm(pc_responses, axis=1),
        min_raw_eigenvalue=components.min_raw_eigenvalue,
        negative_min_eigenvalue=components.min_raw_eigenvalue < 0.0,
        canonical_distance_sq=canonical_angle_distance(null_pcs, true_null_span),
    )


def _signs(vectors: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """+1 or -1 per row, making each row's inner product with its reference row nonnegative."""
    return np.where(np.einsum("...k,...k->...", vectors, reference) < 0.0, -1.0, 1.0)


def _aligned(result: ReplicateResult, ref: ReplicateResult) -> ReplicateResult:
    s0 = _signs(result.simplest_vector, ref.simplest_vector)
    flips = _signs(result.null_pc_vectors, ref.null_pc_vectors)[:, None]
    return replace(
        result,
        simplest_vector=s0 * result.simplest_vector,
        null_pc_vectors=flips * result.null_pc_vectors,
        simplest_response=s0 * result.simplest_response,
        null_pc_responses=flips * result.null_pc_responses,
    )


def run_study(
    params: SimulationParams,
    reps: int,
    measure: SimplicityMeasure,
    null_dim: int = 3,
) -> StudySummary:
    """Replicate the pipeline: generate, estimate, clip, partition, respond.

    Each replicate r draws from its own generator keyed by (seed, r), so the
    summary does not depend on the order replicates run in. Vectors are
    sign-aligned against the first replicate before aggregation, since
    eigenvectors and simplicity vectors are only defined up to sign.
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

    def compute(r: int) -> ReplicateResult:
        try:
            return _one_replicate(params, r, null_dim, measure, true_null_span, g_true)
        except Exception as exc:
            exc.args = (f"replicate {r}: {exc}",)
            raise

    raw = ordered_map(compute, range(reps))
    ref = raw[0]
    replicates = tuple(_aligned(r, ref) for r in raw)

    # align true references to the same conventions as the displayed replicates
    true_simplest = _signs(true_simplest, ref.simplest_vector) * true_simplest
    true_pcs = _signs(true_null_span, ref.null_pc_vectors)[:, None] * true_null_span

    simplest_norms = np.array([r.simplest_response_norm for r in replicates])
    pc_norms = np.array([r.null_pc_response_norms for r in replicates])
    raw_minima = np.array([r.min_raw_eigenvalue for r in replicates])
    ddof = 1 if reps > 1 else 0
    return StudySummary(
        params=params,
        reps=reps,
        null_dim=null_dim,
        measure_kind=measure.kind,
        replicates=replicates,
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
        mean_canonical_distance_sq=float(
            np.mean([r.canonical_distance_sq for r in replicates])
        ),
    )
