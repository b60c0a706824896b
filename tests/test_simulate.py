import numpy as np
import pytest

from genecon.core import SymMatrix, clip_negative_eigenvalues
from genecon.errors import DimensionMismatch, InvalidCovariance, InvalidMatrix
from genecon.estimate import anova_estimate
from genecon.reference import study_params, surrogate_g, temperature_grid
from genecon.simplicity import first_difference_measure, simplicity_basis
from genecon.simulate import SimulationParams, generate_dataset, run_study
from genecon.spaces import canonical_angle_distance

MEASURE = first_difference_measure(temperature_grid())


def small_params(**overrides):
    defaults = dict(n_families=12, family_size=4, seed=99)
    defaults.update(overrides)
    return study_params(**defaults)


class TestGenerateDataset:
    def test_deterministic(self):
        p = small_params()
        a = generate_dataset(p, replicate=0)
        b = generate_dataset(p, replicate=0)
        np.testing.assert_array_equal(a.values, b.values)

    def test_replicates_differ(self):
        p = small_params()
        a = generate_dataset(p, replicate=0)
        b = generate_dataset(p, replicate=1)
        assert not np.array_equal(a.values, b.values)

    def test_seeds_differ(self):
        a = generate_dataset(small_params(seed=1))
        b = generate_dataset(small_params(seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_family_count_keeps_prefix(self):
        # each family's records depend only on its own index, so a smaller data
        # set is the first families of a larger one with the same seed
        small = generate_dataset(small_params(n_families=5), replicate=2)
        large = generate_dataset(small_params(n_families=12), replicate=2)
        np.testing.assert_array_equal(small.values, large.values[:5])

    def test_stream_layout_pinned(self):
        # one row of normals per family: K for the family effect, then 3K per
        # member; changing that layout changes these records and every study
        expected = [
            [0.011018328292530098, 0.016744745878550765, 0.11356720286251354,
             -0.23210068716472856, 0.7445127581042392, 0.030769416086412815],
            [1.4197489008213189, 0.13657130335747925, -0.47186655577238035,
             0.7842512925883833, 0.3076687681507383, 0.2717751314775016],
            [0.6648969875243751, -0.19434722299606258, 0.3815029846582128,
             -0.079408227505808, 0.03221833783102299, 0.13531631469605765],
            [0.9448256887190831, 0.26747875834923523, -0.6037768614347795,
             1.041510409645176, 0.29668053426516827, -0.3923455989395883],
        ]
        values = generate_dataset(small_params(), 3).values[0]
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_negative_replicate_rejected(self):
        with pytest.raises(ValueError, match="replicate"):
            generate_dataset(small_params(), replicate=-1)

    def test_zero_covariance_yields_mu(self):
        grid = temperature_grid()
        g = clip_negative_eigenvalues(SymMatrix(np.zeros((6, 6))), 0.0, grid=grid)
        mu = np.arange(6, dtype=float)
        p = SimulationParams(
            mu=mu, g=g, e=SymMatrix(np.zeros((6, 6))), sigma2=0.0,
            n_families=3, family_size=2, design="half-sib", seed=0,
        )
        values = generate_dataset(p).values
        assert np.array_equal(values, np.broadcast_to(mu, values.shape))

    def test_non_psd_e_rejected(self):
        p = small_params()
        with pytest.raises(InvalidCovariance):
            SimulationParams(
                mu=np.zeros(6), g=p.g, e=SymMatrix(np.diag([1.0] * 5 + [-1.0])),
                sigma2=0.0, n_families=3, family_size=2, design="half-sib", seed=0,
            )

    def test_negative_sigma2_rejected(self):
        p = small_params()
        with pytest.raises(InvalidCovariance):
            SimulationParams(
                mu=np.zeros(6), g=p.g, e=p.e, sigma2=-0.1,
                n_families=3, family_size=2, design="half-sib", seed=0,
            )

    def test_mu_dimension_checked(self):
        p = small_params()
        with pytest.raises(DimensionMismatch):
            SimulationParams(
                mu=np.zeros(5), g=p.g, e=p.e, sigma2=0.0,
                n_families=3, family_size=2, design="half-sib", seed=0,
            )

    def test_sibling_covariance_matches_family_share(self):
        # with E = 0 and sigma2 = 0 the records expose the genetic component;
        # the covariance between two siblings is the shared family share G/4.
        # The 2% bound sits near the Monte Carlo noise floor at 1e5 pair
        # draws, so the seed is pinned.
        g = surrogate_g()
        p = SimulationParams(
            mu=np.zeros(6), g=g, e=SymMatrix(np.zeros((6, 6))), sigma2=0.0,
            n_families=100_000, family_size=2, design="half-sib", seed=2,
        )
        values = generate_dataset(p).values
        sib1 = values[:, 0, :]
        sib2 = values[:, 1, :]
        cross = sib1.T @ sib2 / p.n_families
        cross = (cross + cross.T) / 2
        target = g.matrix.entries / 4
        err = np.linalg.norm(cross - target)
        assert err <= 0.02 * np.linalg.norm(target)

    def test_full_sib_share(self):
        g = surrogate_g()
        p = SimulationParams(
            mu=np.zeros(6), g=g, e=SymMatrix(np.zeros((6, 6))), sigma2=0.0,
            n_families=100_000, family_size=2, design="full-sib", seed=217,
        )
        values = generate_dataset(p).values
        cross = values[:, 0, :].T @ values[:, 1, :] / p.n_families
        cross = (cross + cross.T) / 2
        target = g.matrix.entries / 2
        assert np.linalg.norm(cross - target) <= 0.02 * np.linalg.norm(target)


class TestRunStudy:
    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError):
            run_study(small_params(), reps=0, null_dim=3, measure=MEASURE)

    def test_rejects_bad_null_dim(self):
        with pytest.raises(ValueError):
            run_study(small_params(), reps=1, null_dim=6, measure=MEASURE)
        with pytest.raises(ValueError):
            run_study(small_params(), reps=1, null_dim=0, measure=MEASURE)

    def test_single_rep_consistency(self):
        # noiseless environment at a generous sample size pins the nearly
        # null space close to the truth
        g = surrogate_g()
        p = SimulationParams(
            mu=np.zeros(6), g=g, e=SymMatrix(np.zeros((6, 6))), sigma2=0.0,
            n_families=500, family_size=20, design="half-sib", seed=5150,
        )
        summary = run_study(p, reps=1, null_dim=3, measure=MEASURE)
        assert summary.canonical_distances_sq.shape == (1,)
        assert summary.canonical_distances_sq[0] < 0.05

    def test_deterministic(self):
        p = small_params(n_families=30, family_size=6)
        a = run_study(p, reps=4, null_dim=3, measure=MEASURE)
        b = run_study(p, reps=4, null_dim=3, measure=MEASURE)
        np.testing.assert_array_equal(a.simplest_vectors, b.simplest_vectors)
        assert a.simplest_norm_mean == b.simplest_norm_mean
        assert a.negative_fraction == b.negative_fraction

    def test_thread_invariance(self, monkeypatch):
        p = small_params(n_families=30, family_size=6)
        monkeypatch.delenv("GENECON_THREADS", raising=False)
        seq = run_study(p, reps=6, null_dim=3, measure=MEASURE)
        monkeypatch.setenv("GENECON_THREADS", "3")
        par = run_study(p, reps=6, null_dim=3, measure=MEASURE)
        np.testing.assert_array_equal(seq.simplest_vectors, par.simplest_vectors)
        np.testing.assert_array_equal(seq.null_pc_vectors, par.null_pc_vectors)
        assert seq.mean_canonical_distance_sq == par.mean_canonical_distance_sq
        assert seq.min_eigenvalue_observed == par.min_eigenvalue_observed

    def test_sign_alignment(self):
        summary = run_study(small_params(n_families=40, family_size=8),
                            reps=8, null_dim=3, measure=MEASURE)
        assert np.all(summary.simplest_vectors @ summary.simplest_vectors[0] >= 0.0)
        pcs = summary.null_pc_vectors
        assert np.all(np.einsum("rik,ik->ri", pcs, pcs[0]) >= 0.0)
        assert summary.true_simplest @ summary.simplest_vectors[0] >= 0.0

    def test_simplest_response_bounded_by_estimated_null(self):
        # within the estimated matrix, a nearly-null direction can never
        # respond more than the top nearly-null eigenvalue
        p = small_params(n_families=40, family_size=8)
        summary = run_study(p, reps=8, null_dim=3, measure=MEASURE)
        j = 6 - summary.null_dim
        for r, simplest in enumerate(summary.simplest_vectors):
            ghat = anova_estimate(generate_dataset(p, r)).g_hat
            norm = np.linalg.norm(ghat.matrix.entries @ simplest)
            assert norm <= ghat.eigenvalues[j] + 1e-9

    def test_aggregates_match_replicates(self):
        summary = run_study(small_params(n_families=30, family_size=6),
                            reps=5, null_dim=3, measure=MEASURE)
        norms = summary.simplest_response_norms
        assert norms.shape == (5,)
        assert summary.simplest_norm_mean == pytest.approx(norms.mean(), abs=1e-15)
        assert summary.simplest_norm_sd == pytest.approx(norms.std(ddof=1), abs=1e-15)
        flags = summary.min_raw_eigenvalues < 0.0
        assert summary.negative_fraction == pytest.approx(np.mean(flags), abs=1e-15)

    def test_equals_per_replicate_public_path(self):
        # the stacked stages give, bit for bit, what the public single-matrix
        # functions give one replicate at a time
        p = small_params(n_families=30, family_size=6)
        reps, null_dim = 5, 3
        summary = run_study(p, reps=reps, null_dim=null_dim, measure=MEASURE)
        g_true = p.g.matrix.entries
        true_span = p.g.eig.eigenvectors.T[6 - null_dim:]
        rows = []
        for r in range(reps):
            components = anova_estimate(generate_dataset(p, r))
            pcs = components.g_hat.eig.eigenvectors.T[6 - null_dim:]
            simplest = simplicity_basis(pcs, MEASURE).vectors[0]
            rows.append((components.min_raw_eigenvalue, simplest, pcs,
                         canonical_angle_distance(pcs, true_span)))
        minima, simplest, pcs, distances = (np.array(c) for c in zip(*rows))
        s0 = np.where(simplest @ simplest[0] < 0.0, -1.0, 1.0)
        flips = np.where(np.einsum("rik,ik->ri", pcs, pcs[0]) < 0.0, -1.0, 1.0)
        simplest = s0[:, None] * simplest
        pcs = flips[:, :, None] * pcs
        responses = np.array([g_true @ v for v in simplest])
        pc_responses = np.array([v @ g_true.T for v in pcs])

        np.testing.assert_array_equal(summary.min_raw_eigenvalues, minima)
        np.testing.assert_array_equal(summary.simplest_vectors, simplest)
        np.testing.assert_array_equal(summary.null_pc_vectors, pcs)
        np.testing.assert_array_equal(summary.simplest_responses, responses)
        np.testing.assert_array_equal(summary.null_pc_responses, pc_responses)
        np.testing.assert_array_equal(summary.simplest_response_norms,
                                      [np.linalg.norm(v) for v in responses])
        np.testing.assert_array_equal(summary.null_pc_response_norms,
                                      [np.linalg.norm(v, axis=1) for v in pc_responses])
        np.testing.assert_array_equal(summary.canonical_distances_sq, distances)

    @pytest.mark.parametrize("scale, first", [(1e307, 0), (5.5e306, 1)])
    def test_overflowing_mean_squares_name_the_replicate(self, scale, first):
        # finite records whose cross products overflow: the stacked check
        # reports the first replicate that fails (at 5.5e306 replicate 0 passes)
        grid = temperature_grid()
        g = clip_negative_eigenvalues(SymMatrix(scale * np.eye(6)), 0.0, grid=grid)
        p = SimulationParams(
            mu=np.zeros(6), g=g, e=SymMatrix(np.zeros((6, 6))), sigma2=0.0,
            n_families=10, family_size=4, design="half-sib", seed=0,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidMatrix,
                               match=rf"^replicate {first}: matrix entries must be finite$"):
                run_study(p, reps=6, null_dim=3, measure=MEASURE)
