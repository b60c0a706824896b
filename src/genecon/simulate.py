"""Family-structured phenotype simulation and the replicated estimation study.

Records follow y_ij = mu + g_ij + e_ij + eps_ij with the genetic deviation
split into a shared family effect and an individual remainder so that the
moment estimator recovers G in expectation: for half-siblings the family
effect carries G/4 and the remainder 3G/4 (c = 4); full siblings share G/2
(c = 2). Environmental deviations are N(0, E) and measurement noise is
isotropic N(0, sigma2 I), all independent.

A replicate is drawn through its sufficient statistics. With n members per
family, Sigma_w = (1 - 1/c) G + E + sigma2 I and df = N_f (n - 1), the family
means are independent N(mu, G/c + Sigma_w/n), and the pooled within-family
SSCP matrix W is Wishart(df, Sigma_w), independent of the means. By
Bartlett's decomposition W = B B' with B = L_w A, where L_w L_w' = Sigma_w, A
is lower triangular, A_ii^2 ~ chi2(df - i + 1) and the entries below the
diagonal are N(0, 1) (Anderson, An Introduction to Multivariate Statistical
Analysis, 3rd ed., section 7.2). When df < K, A is instead the transpose of
a df x K block of normals. The study needs only the means and B; records,
when asked for, add within-family deviations U B', U a Haar orthonormal frame
in the within-family contrast space, so their MANOVA reproduces the
replicate up to roundoff.

Randomness is counter-based (Philox): before a replicate draws, one generator
is reset to the key (seed, replicate), so the draws are reproducible and do
not depend on the order replicates run in. It draws the family-mean normals,
then A row by row, then (for records only) the frame's normals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (GMatrix, SymMatrix, _ReadOnlyArrays, _check_psd, _eigh, _readonly,
                   finite_reals, json_int, real)
from .errors import DimensionMismatch, InvalidCovariance
from .estimate import RELATEDNESS, FamilyDataset, _between_ms, _raw_estimates, normalize_design
from .simplicity import SimplicityMeasure, _simplicity_vectors, simplicity_basis
from .spaces import _canonical_distances

RNG_DESCRIPTION = (
    "philox4x64 keyed by (seed, replicate); per replicate, ziggurat normals for the family "
    "means, then Bartlett's factor of the within-family Wishart (numpy Generator)"
)


def _psd_factor(matrix: np.ndarray, name: str) -> np.ndarray:
    """Factor A with A A' = matrix; zeroes the negatives that :func:`_check_psd` allows."""
    lam, vectors = _eigh(matrix)
    _check_psd(lam, name, InvalidCovariance)
    return vectors * np.sqrt(np.clip(lam, 0.0, None))


@dataclass(frozen=True, eq=False)
class SimulationParams:
    """Generative model: mean, covariances, design shape, and the seed.

    The two factors a replicate needs are computed once, here: ``within_factor``
    L_w with L_w L_w' = Sigma_w, and ``means_factor`` L_b with
    L_b L_b' = G/c + Sigma_w/n. An E that is not positive semidefinite raises
    :class:`InvalidCovariance`.
    """

    mu: np.ndarray
    g: GMatrix
    e: SymMatrix
    sigma2: float
    n_families: int
    family_size: int
    design: str
    seed: int
    within_factor: np.ndarray = field(init=False, repr=False)
    means_factor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        k = self.g.dim
        mu = finite_reals(self.mu, "mu", (k,))
        if self.e.dim != k:
            raise DimensionMismatch(f"E is {self.e.dim}-dimensional, G is {k}-dimensional")
        object.__setattr__(self, "sigma2", real(self.sigma2, "sigma2"))
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise InvalidCovariance(f"sigma2 must be finite and nonnegative, got {self.sigma2}")
        for name in ("seed", "n_families", "family_size"):
            object.__setattr__(self, name, json_int(getattr(self, name), name))
        if self.n_families < 2 or self.family_size < 2:
            raise ValueError(
                f"need at least 2 families of 2 members, got "
                f"{self.n_families} x {self.family_size}"
            )
        object.__setattr__(self, "design", normalize_design(self.design))
        object.__setattr__(self, "mu", _readonly(mu))
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        _psd_factor(self.e.entries, "E")
        g = self.g.matrix.entries
        within = (1.0 - 1.0 / self.relatedness) * g + self.e.entries + self.sigma2 * np.eye(k)
        means = g / self.relatedness + within / self.family_size
        object.__setattr__(self, "within_factor", _readonly(_psd_factor(within, "Sigma_w")))
        object.__setattr__(self, "means_factor", _readonly(_psd_factor(means, "Sigma_b")))

    @property
    def dim(self) -> int:
        return self.g.dim

    @property
    def relatedness(self) -> float:
        return RELATEDNESS[self.design]

    @property
    def within_df(self) -> int:
        return self.n_families * (self.family_size - 1)

    def to_payload(self) -> dict:
        """The model's fields as a study config writes them, in its key order."""
        return {"g": self.g.matrix.to_payload(), "e": self.e.to_payload(),
                "sigma2": float(self.sigma2), "mu": self.mu.tolist(), "families": self.n_families,
                "siblings": self.family_size, "design": self.design, "seed": self.seed}


def _draws(params: SimulationParams, replicates):
    """The generator, family means (R, N_f, K) and B (R, K, min(df, K)) of R replicates."""
    k, df, gen = params.dim, params.within_df, np.random.Generator(np.random.Philox())
    z = np.empty((len(replicates), params.n_families, k))
    a = np.zeros((len(replicates), k, min(k, df)))
    state = {"bit_generator": "Philox", "buffer": np.zeros(4, np.uint64), "buffer_pos": 4,
             "has_uint32": 0, "uinteger": 0, "state": {"counter": np.zeros(4, np.uint64)}}
    for z_r, a_r, r in zip(z, a, replicates):
        state["state"]["key"] = np.array([params.seed, r], dtype=np.uint64)
        gen.bit_generator.state = state
        gen.standard_normal(out=z_r)
        if df >= k:
            # row i of A: i normals, then sqrt(chi2(df - i)); scalar chisquare
            # calls, as numpy's array-argument path adds about 0.3 MB to peak RSS
            for i in range(k):
                gen.standard_normal(out=a_r[i, :i])
                a_r[i, i] = gen.chisquare(df - i) ** 0.5
        else:  # singular Wishart: W = L_w Z'Z L_w' with Z a df x K block of normals
            a_r[:] = gen.standard_normal((df, k)).T
    # the means overwrite z: one (R, N_f, K) array fewer at the peak
    return gen, np.add(params.mu, z @ params.means_factor.T, out=z), params.within_factor @ a


def generate_dataset(params: SimulationParams, replicate: int = 0) -> FamilyDataset:
    """Draw the records of study replicate r; bit-identical for identical inputs.

    The family means and B are those ``run_study`` draws for replicate r;
    the within-family deviations are U B', with U the Q factor (signs fixed
    by diag(R) > 0) of family-centred normals drawn next from the same
    generator. So the records' MANOVA gives replicate r's mean squares up to
    roundoff. The drawn family means depend only on the family index, so
    those of N families are the first N of any larger data set with the same
    seed, replicate and family size, and the records' family means match
    them up to roundoff; the within-family deviations are not a prefix.
    """
    replicate = json_int(replicate, "replicate")
    if replicate < 0:
        raise ValueError(f"replicate index must be nonnegative, got {replicate}")
    gen, (means,), (b,) = _draws(params, [replicate])
    n_f, n = params.n_families, params.family_size
    z = gen.standard_normal((n_f, n, b.shape[1]))
    q, r = np.linalg.qr((z - z.mean(axis=1, keepdims=True)).reshape(n_f * n, -1))
    frame = q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    values = means[:, None, :] + (frame @ b.T).reshape(n_f, n, -1)
    return FamilyDataset(values, params.g.grid, params.design)


@dataclass(frozen=True, eq=False)
class StudySummary(_ReadOnlyArrays):
    """The replicated study as columns, with the true-parameter references and aggregates.

    Row r of each ``(reps, ...)`` array is replicate r. Responses use the
    estimated directions as selection gradients on the generating G. Each
    replicate's simplest vector is sign-aligned against ``true_simplest``, and
    its null PC i against true null PC i, responses with them.
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


def _signs(vectors: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """+1 or -1 per row, making each row's inner product with its reference row nonnegative."""
    return np.where(np.einsum("...k,...k->...", vectors, reference) < 0.0, -1.0, 1.0)


def _study_mean_squares(params: SimulationParams, reps: int) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked MSB and MSW of replicates 0..reps-1, (reps, K, K) each, from one draw apiece."""
    _, means, b = _draws(params, range(reps))
    return _between_ms(means, params.family_size), b @ np.swapaxes(b, -1, -2) / params.within_df


def run_study(
    params: SimulationParams,
    reps: int,
    measure: SimplicityMeasure,
    null_dim: int = 3,
) -> StudySummary:
    """Replicate the pipeline: generate, estimate, decompose, find the simplest vector, respond.

    Each replicate draws only its sufficient statistics, from the stream
    keyed by (seed, r), and no records are drawn. Each later stage is one
    call on (reps, ...) arrays: the mean squares,
    G_hat_raw = c (MSB - MSW) / n, its eigendecomposition (not clipped:
    clipping leaves the eigenvectors as they are), the simplicity bases,
    responses, norms and canonical distances. An error names the first
    failing replicate. Vectors are only defined up to sign, so each is
    sign-aligned against its true counterpart.
    """
    reps, null_dim = json_int(reps, "reps"), json_int(null_dim, "null_dim")
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

    g_raw = _raw_estimates(*_study_mean_squares(params, reps), params.family_size,
                           params.relatedness)[3]

    eigenvalues, eigenvectors = _eigh(g_raw)
    raw_minima = eigenvalues.min(axis=-1)
    null_pcs = np.swapaxes(eigenvectors[..., j:], -1, -2)
    simplest = _simplicity_vectors(eigenvectors[..., j:], measure.lambda_matrix.entries)[0][:, 0]
    # G x per vector (BLAS gemv) and each norm from x'x (BLAS dot), as for one
    # vector in np.linalg.norm: each replicate's numbers equal the public path's
    simplest_responses = (g_true @ simplest[:, :, None])[:, :, 0]
    simplest_norms = np.sqrt(
        simplest_responses[:, None, :] @ simplest_responses[:, :, None]
    )[:, 0, 0]
    pc_responses = null_pcs @ g_true.T
    pc_norms = np.linalg.norm(pc_responses, axis=-1)
    distances = _canonical_distances(null_pcs, true_null_span)

    s0 = _signs(simplest, true_simplest)[:, None]
    flips = _signs(null_pcs, true_null_span)[:, :, None]

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
        true_null_pcs=true_null_span,
        true_simplest=true_simplest,
        true_simplest_response=g_true @ true_simplest,
        true_pc_responses=true_null_span @ g_true.T,
        simplest_norm_mean=float(simplest_norms.mean()),
        simplest_norm_sd=float(simplest_norms.std(ddof=ddof)),
        pc_norm_means=pc_norms.mean(axis=0),
        pc_norm_sds=pc_norms.std(axis=0, ddof=ddof),
        negative_fraction=float(np.mean(raw_minima < 0.0)),
        min_eigenvalue_observed=float(raw_minima.min()),
        mean_canonical_distance_sq=float(np.mean(distances)),
    )
