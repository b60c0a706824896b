import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from genecon.core import SymMatrix, TraitGrid, clip_negative_eigenvalues, symmetric_eigen
from genecon.errors import DimensionMismatch, InvalidMatrix, SingularPhenotypicCovariance
from genecon.reference import age_grid, surrogate_g, temperature_grid
from genecon.simplicity import first_difference_measure, measure_from_kind, sparseness_measure
from genecon.spaces import (
    breeders_response,
    canonical_angle_distance,
    heritability_matrix,
    partition,
    response_to_selection,
    sweep_partitions,
    variance_proportions,
)

TEMP_GRID = TraitGrid(np.array([11.0, 17.0, 23.0, 29.0, 35.0, 40.0]))
GROWTH_EIGS = np.array([0.618, 0.200, 0.153, 0.061, 0.008, 0.0])
HEIGHT_EIGS = np.array([48.98, 0.82, 0.33, 0.08, 0.0, 0.0])


def psd(entries, grid=None):
    return clip_negative_eigenvalues(SymMatrix(np.asarray(entries, dtype=float)), 0.0, grid=grid)


def random_orthogonal(k, rng):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def random_psd(k, rng, eigenvalues=None):
    if eigenvalues is None:
        eigenvalues = rng.uniform(0.0, 2.0, size=k)
    q = random_orthogonal(k, rng)
    return psd((q * eigenvalues) @ q.T)


class TestResponseToSelection:
    def test_identity(self):
        g = psd(np.eye(4))
        beta = np.array([0.5, -1.0, 2.0, 0.0])
        sv = response_to_selection(g, beta)
        np.testing.assert_array_equal(sv.response, beta)
        assert sv.differential is None

    def test_zero_gradient(self):
        sv = response_to_selection(psd(np.eye(3)), np.zeros(3))
        np.testing.assert_array_equal(sv.response, np.zeros(3))
        assert sv.response_norm == 0.0

    def test_eigenvector_norm_is_eigenvalue(self):
        g = psd(np.diag(GROWTH_EIGS))
        sv = response_to_selection(g, g.eig.eigenvectors[:, 0])
        assert sv.response_norm == pytest.approx(0.618, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            response_to_selection(psd(np.eye(3)), np.ones(4))


class TestBreedersResponse:
    def test_scalar_heritability(self):
        sv = breeders_response(psd([[1.0]]), SymMatrix([[3.0]]), [2.0])
        assert abs(sv.response[0] - 0.5) <= 1e-12
        np.testing.assert_allclose(sv.gradient, [0.5], atol=1e-12)
        np.testing.assert_array_equal(sv.differential, [2.0])

    def test_zero_environment(self):
        rng = np.random.default_rng(0)
        g = random_psd(4, rng, eigenvalues=[2.0, 1.0, 0.7, 0.3])
        s = rng.standard_normal(4)
        sv = breeders_response(g, SymMatrix(np.zeros((4, 4))), s)
        np.testing.assert_allclose(sv.response, s, atol=1e-10)

    def test_zero_g(self):
        sv = breeders_response(psd(np.zeros((3, 3))), SymMatrix(np.eye(3)), np.ones(3))
        np.testing.assert_allclose(sv.response, np.zeros(3), atol=1e-15)

    def test_environment_dimension_checked(self):
        with pytest.raises(DimensionMismatch, match="^E is 2-dimensional, G is 3-dimensional$"):
            breeders_response(psd(np.eye(3)), SymMatrix(np.eye(2)), np.ones(3))

    def test_singular_rejected(self):
        g = psd(np.zeros((2, 2)))
        with pytest.raises(SingularPhenotypicCovariance):
            breeders_response(g, SymMatrix(np.zeros((2, 2))), np.ones(2))

    def test_indefinite_phenotypic_covariance_rejected(self):
        # G + E = diag(2, 1.5, -0.4) has a small condition number but is indefinite
        g = psd(np.diag([1.0, 0.5, 0.1]))
        e = SymMatrix(np.diag([1.0, 1.0, -0.5]))
        with pytest.raises(SingularPhenotypicCovariance, match="positive definite"):
            breeders_response(g, e, np.ones(3))

    def test_truncation_selection_monte_carlo(self):
        # generative check: under truncation selection on jointly normal
        # (genetic, phenotype) pairs, the realized genetic mean shift of the
        # selected group matches G (G+E)^-1 s, with s measured from the
        # phenotypes themselves
        rng = np.random.default_rng(2718)
        k = 3
        a = rng.standard_normal((k, k))
        b = rng.standard_normal((k, k))
        g = psd(a @ a.T)
        e = SymMatrix(b @ b.T + 0.5 * np.eye(k))

        n = 400_000
        lg = np.linalg.cholesky(g.matrix.entries)
        le = np.linalg.cholesky(e.entries)
        genetic = rng.standard_normal((n, k)) @ lg.T
        phenotype = genetic + rng.standard_normal((n, k)) @ le.T

        selected = phenotype[:, 0] > np.quantile(phenotype[:, 0], 0.8)
        s = phenotype[selected].mean(axis=0) - phenotype.mean(axis=0)
        observed = genetic[selected].mean(axis=0) - genetic.mean(axis=0)
        predicted = breeders_response(g, e, s).response

        mc_scale = np.sqrt(np.diag(g.matrix.entries).max() / selected.sum())
        assert np.abs(observed - predicted).max() <= 0.5 * mc_scale

    def test_consistency_with_gradient_form(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            k = int(rng.integers(2, 7))
            g = random_psd(k, rng)
            e = random_psd(k, rng, eigenvalues=rng.uniform(0.1, 2.0, size=k)).matrix
            beta = rng.standard_normal(k)
            s = (g.matrix.entries + e.entries) @ beta
            direct = response_to_selection(g, beta)
            via_s = breeders_response(g, e, s)
            np.testing.assert_allclose(via_s.response, direct.response, atol=1e-9)


class TestHeritability:
    def test_scalar(self):
        h = heritability_matrix(psd([[1.0]]), SymMatrix([[3.0]]))
        assert h[0, 0] == pytest.approx(0.25, abs=1e-12)

    def test_zero_environment_is_identity(self):
        g = psd(np.diag([2.0, 1.0]))
        h = heritability_matrix(g, SymMatrix(np.zeros((2, 2))))
        np.testing.assert_allclose(h, np.eye(2), atol=1e-12)

    def test_hand_computed(self):
        h = heritability_matrix(psd(np.diag([2.0, 0.0])), SymMatrix(np.eye(2)))
        np.testing.assert_allclose(h, np.diag([2 / 3, 0.0]), atol=1e-12)

    def test_defining_property_dense(self):
        # H (G+E) = G for non-diagonal inputs
        rng = np.random.default_rng(55)
        for _ in range(25):
            k = int(rng.integers(2, 7))
            g = random_psd(k, rng)
            e = random_psd(k, rng, eigenvalues=rng.uniform(0.2, 2.0, size=k)).matrix
            h = heritability_matrix(g, e)
            np.testing.assert_allclose(
                h @ (g.matrix.entries + e.entries), g.matrix.entries, atol=1e-9
            )


class TestVarianceProportions:
    def test_eigenbasis_proportions(self):
        g = psd(np.diag(GROWTH_EIGS))
        shares = variance_proportions(g, g.eig.eigenvectors.T)
        assert shares.proportions[0] == pytest.approx(0.618 / GROWTH_EIGS.sum(), abs=1e-12)
        assert shares.proportions.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(shares.norms, GROWTH_EIGS, atol=1e-12)

    def test_height_data_shares(self):
        g = psd(np.diag(HEIGHT_EIGS))
        shares = variance_proportions(g, g.eig.eigenvectors.T)
        assert shares.proportions[0] == pytest.approx(0.9755, abs=0.0005)
        assert shares.proportions[:2].sum() == pytest.approx(0.9918, abs=0.0005)

    def test_identity_uniform(self):
        rng = np.random.default_rng(4)
        g = psd(np.eye(5))
        basis = random_orthogonal(5, rng).T
        shares = variance_proportions(g, basis)
        np.testing.assert_allclose(shares.proportions, np.full(5, 0.2), atol=1e-12)

    def test_zero_matrix_flagged(self):
        shares = variance_proportions(psd(np.zeros((3, 3))), np.eye(3))
        assert shares.zero_total
        np.testing.assert_array_equal(shares.proportions, np.zeros(3))

    def test_non_orthonormal_rejected(self):
        with pytest.raises(InvalidMatrix):
            variance_proportions(psd(np.eye(2)), np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_pairs(self):
        shares = variance_proportions(psd(np.eye(2)), np.eye(2))
        np.testing.assert_array_equal(shares.norms, [1.0, 1.0])
        np.testing.assert_array_equal(shares.proportions, [0.5, 0.5])

    def test_one_vector_as_a_flat_array(self):
        shares = variance_proportions(psd(np.diag([3.0, 1.0])), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(shares.norms, [1.0])
        np.testing.assert_array_equal(shares.proportions, [1.0])

    def test_vector_length_checked(self):
        with pytest.raises(DimensionMismatch, match="^basis vectors have length 3, expected 2$"):
            variance_proportions(psd(np.eye(2)), np.eye(3))


class TestPartition:
    def measure(self):
        return first_difference_measure(TEMP_GRID)

    def test_full_model_space(self):
        part = partition(psd(np.diag(GROWTH_EIGS), TEMP_GRID), 6, self.measure())
        assert part.null_dim == 0
        assert part.model_variance_fraction == pytest.approx(1.0, abs=1e-12)
        assert part.null_variance_fraction == 0.0

    def test_empty_model_space(self):
        part = partition(psd(np.diag(GROWTH_EIGS), TEMP_GRID), 0, self.measure())
        assert part.j == 0
        assert part.null_dim == 6
        assert part.null_variance_fraction == pytest.approx(1.0, abs=1e-12)
        # simplicity basis of the whole space: simplest vector is constant
        np.testing.assert_allclose(
            np.abs(part.null_basis.vectors[0]), np.full(6, 1 / np.sqrt(6)), atol=1e-9
        )

    def test_reference_null_fraction(self):
        part = partition(psd(np.diag(GROWTH_EIGS), TEMP_GRID), 4, self.measure())
        assert part.null_variance_fraction == pytest.approx(0.008 / 1.040, abs=1e-12)
        assert part.model_variance_fraction + part.null_variance_fraction == pytest.approx(
            1.0, abs=1e-10
        )

    def test_combined_basis_orthonormal(self):
        rng = np.random.default_rng(6)
        for j in range(7):
            g = random_psd(6, rng)
            part = partition(g, j, self.measure())
            basis = part.combined_basis()
            assert np.abs(basis @ basis.T - np.eye(6)).max() <= 1e-8

    def test_fraction_sum(self):
        rng = np.random.default_rng(16)
        g = random_psd(6, rng)
        for j in range(7):
            part = partition(g, j, self.measure())
            assert part.model_variance_fraction + part.null_variance_fraction == pytest.approx(
                1.0, abs=1e-10
            )

    def test_boundary_tie_flagged(self):
        g = psd(np.diag([2.0, 1.0, 1.0, 0.5]))
        measure = sparseness_measure(4)
        assert partition(g, 2, measure).boundary_tie
        assert not partition(g, 1, measure).boundary_tie

    def test_boundary_tie_agrees_with_degenerate_below_unit_scale(self):
        # the tie bound is 1e-9 * |largest| = 5e-10, with no floor at 1: one rule
        # flags a gap of 4e-10 in both flags, and a gap of 7e-10 in neither
        for gap, tied in ((4e-10, True), (7e-10, False)):
            g = psd(np.diag([0.5, 0.3, 0.3 - gap, 0.1]))
            assert symmetric_eigen(g.matrix).degenerate == tied
            assert partition(g, 2, sparseness_measure(4)).boundary_tie == tied

    def test_zero_variance_flagged(self):
        part = partition(psd(np.zeros((6, 6)), TEMP_GRID), 3, self.measure())
        assert part.zero_variance
        assert part.model_variance_fraction == 0.0

    def test_invalid_j(self):
        g = psd(np.eye(6))
        with pytest.raises(ValueError):
            partition(g, 7, self.measure())
        with pytest.raises(ValueError):
            partition(g, -1, self.measure())

    def test_j_must_be_an_integer(self):
        # an integral real is its integer; a bool is not 1, nor 2.5 truncated
        g = psd(np.eye(6), TEMP_GRID)
        for bad in (True, 2.5, "2"):
            with pytest.raises(ValueError, match="^j must be an integer, got "):
                partition(g, bad, self.measure())
        part = partition(g, 2.0, self.measure())
        assert part.j == 2 and type(part.j) is int
        np.testing.assert_array_equal(part.scores, partition(g, 2, self.measure()).scores)

    def test_measure_dimension_checked(self):
        with pytest.raises(DimensionMismatch, match="^measure is 5-dimensional, G is 6-dim"):
            partition(psd(np.eye(6)), 2, sparseness_measure(5))

    def test_reference_null_basis_pinned(self):
        # values of the reference 3-dimensional null basis computed with the
        # Gram-Schmidt orthonormalization; a QR without its sign fix flips them
        part = partition(surrogate_g(), 3, first_difference_measure(temperature_grid()))
        expected = [
            [0.0, 0.0, 0.0, 0.3350784271111584, 0.6025998737930813, 0.7242898865711677],
            [0.0, 0.0, 0.0, 0.7923955286445127, 0.23565725567865065, -0.5626499658137287],
            [0.0, 0.0, 0.0, 0.5097369653741971, -0.7624559331204456, 0.3985337829852511],
        ]
        np.testing.assert_allclose(part.null_basis.vectors, expected, rtol=0, atol=1e-12)

    def test_scores_match_quadratic_form(self):
        g = psd(np.diag(GROWTH_EIGS), TEMP_GRID)
        measure = self.measure()
        part = partition(g, 4, measure)
        basis = part.combined_basis()
        lam = measure.lambda_matrix.entries
        np.testing.assert_allclose(
            part.scores, [v @ lam @ v for v in basis], atol=1e-12
        )


class TestSweep:
    def test_count_and_consistency(self):
        g = psd(np.diag(GROWTH_EIGS), TEMP_GRID)
        measure = first_difference_measure(TEMP_GRID)
        parts = sweep_partitions(g, measure)
        assert len(parts) == 7
        for j, part in enumerate(parts):
            assert part.j == j
        lone0 = partition(g, 0, measure)
        lone6 = partition(g, 6, measure)
        np.testing.assert_array_equal(parts[0].null_basis.vectors, lone0.null_basis.vectors)
        np.testing.assert_array_equal(parts[0].proportions, lone0.proportions)
        np.testing.assert_array_equal(parts[6].model_vectors, lone6.model_vectors)
        np.testing.assert_array_equal(parts[6].response_norms, lone6.response_norms)

    def test_thread_invariance(self, monkeypatch):
        g = psd(np.diag(GROWTH_EIGS), TEMP_GRID)
        measure = first_difference_measure(TEMP_GRID)
        monkeypatch.delenv("GENECON_THREADS", raising=False)
        sequential = sweep_partitions(g, measure)
        monkeypatch.setenv("GENECON_THREADS", "4")
        threaded = sweep_partitions(g, measure)
        for a, b in zip(sequential, threaded):
            np.testing.assert_array_equal(a.proportions, b.proportions)
            np.testing.assert_array_equal(a.null_basis.vectors, b.null_basis.vectors)
            np.testing.assert_array_equal(a.scores, b.scores)


@st.composite
def psd_and_measure(draw):
    """A PSD G, K in [3, 12], in a random basis, zero and tied eigenvalues likely; a measure."""
    k = draw(st.integers(3, 12))
    values = st.one_of(st.sampled_from([0.0, 1.0, 2.5]), st.floats(0.0, 100.0))
    eigenvalues = np.array(draw(st.lists(values, min_size=k, max_size=k)))
    q = random_orthogonal(k, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    kind = draw(st.sampled_from(["d1", "d2", "sparse"]))
    return psd((q * eigenvalues) @ q.T), measure_from_kind(kind, TraitGrid(np.arange(k * 1.0)))


class TestSweepOracles:
    """Properties of every partition of a sweep, from theorems and from the plain formulas."""

    @given(psd_and_measure())
    def test_null_scores_interlace(self, case):
        # V_{J+1:} spans a hyperplane of span(V_{J:}), so by Cauchy's interlacing
        # theorem (Horn & Johnson, Matrix Analysis, 2nd ed., section 4.3)
        # s_i(J) >= s_i(J+1) >= s_{i+1}(J)
        parts = sweep_partitions(*case)
        tol = 1e-12 * max(1.0, abs(parts[0].null_basis.scores[0]))
        for outer, inner in zip(parts, parts[1:]):
            s, t = outer.null_basis.scores, inner.null_basis.scores
            assert np.all(s[:-1] >= t - tol) and np.all(t >= s[1:] - tol)

    @given(psd_and_measure())
    def test_fields_match_plain_formulas(self, case):
        g, measure = case
        lam = measure.lambda_matrix.entries
        for part in sweep_partitions(g, measure):
            b = part.combined_basis()
            assert np.abs(b @ b.T - np.eye(g.dim)).max() <= 1e-12
            np.testing.assert_allclose(part.response_norms,
                                       np.linalg.norm(b @ g.matrix.entries.T, axis=1), rtol=0,
                                       atol=1e-12 * max(1.0, g.eigenvalues[0]))
            np.testing.assert_allclose(part.scores, np.einsum("ik,kl,il->i", b, lam, b), rtol=0,
                                       atol=1e-12 * max(1.0, measure.score_upper_bound))
            if part.zero_variance:
                assert not part.proportions.any()
            else:
                assert part.proportions.sum() == pytest.approx(1.0, rel=0, abs=1e-12)


class TestMetamorphic:
    """Changes of G's units or of the grid's frame that must leave the partition alone."""

    @pytest.mark.parametrize("origin", [0, 7, -100])
    @pytest.mark.parametrize("unit", [4.0, 0.125])
    @pytest.mark.parametrize("grid", [temperature_grid(), age_grid()], ids=["temperature", "age"])
    def test_grid_origin_and_unit(self, grid, origin, unit):
        # an integer origin and a power-of-two unit move every point and gap
        # exactly, so d1, which weighs each gap against the smallest, is the
        # same bit for bit; d2's penalty scales by unit**-3 and its measure with it
        moved = TraitGrid((grid.points + origin) * unit)
        g = surrogate_g(grid=grid)
        g_moved = dataclasses.replace(g, grid=moved)
        for j in range(g.dim + 1):
            a = partition(g, j, measure_from_kind("d1", grid))
            b = partition(g_moved, j, measure_from_kind("d1", moved))
            np.testing.assert_array_equal(b.null_basis.vectors, a.null_basis.vectors)
            np.testing.assert_array_equal(b.scores, a.scores)
            np.testing.assert_array_equal(b.proportions, a.proportions)
        for j in range(g.dim):
            a = partition(g, j, measure_from_kind("d2", grid))
            b = partition(g_moved, j, measure_from_kind("d2", moved))
            np.testing.assert_allclose(b.scores, a.scores * unit**-3,
                                       rtol=0.0, atol=1e-12 * np.abs(b.scores).max())
            if not a.null_basis.degenerate:  # at J = 0 constant and linear vectors tie
                np.testing.assert_allclose(b.null_basis.vectors, a.null_basis.vectors,
                                           rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-3, 0.37, 7.0, 1e3, 2.0**-40, 2.0**40])
    @pytest.mark.parametrize("seed", range(4))
    def test_scaling_g(self, seed, scale):
        # a distinct spectrum, so every eigenvector is defined. Tolerances: 1e-12
        # for eigenvalues (relative), fractions, null-space projectors and scores
        # (of their bound); 1e-10 for vectors, norms (relative) and proportions
        q = random_orthogonal(6, np.random.default_rng(seed))
        entries = (q * np.array([32.0, 16.0, 8.0, 4.0, 2.0, 1.0])) @ q.T
        g, g_scaled = psd(entries, TEMP_GRID), psd(scale * entries, TEMP_GRID)
        np.testing.assert_allclose(g_scaled.eigenvalues, scale * g.eigenvalues, rtol=1e-12)
        for kind in ("d1", "d2", "sparse"):
            measure = measure_from_kind(kind, TEMP_GRID)
            for a, b in zip(sweep_partitions(g, measure), sweep_partitions(g_scaled, measure)):
                assert b.model_variance_fraction == pytest.approx(a.model_variance_fraction,
                                                                  rel=0.0, abs=1e-12)
                np.testing.assert_allclose(b.scores, a.scores, rtol=0.0,
                                           atol=1e-12 * measure.score_upper_bound)
                np.testing.assert_allclose(b.null_basis.vectors.T @ b.null_basis.vectors,
                                           a.null_basis.vectors.T @ a.null_basis.vectors,
                                           rtol=0.0, atol=1e-12)
                assert b.null_basis.degenerate == a.null_basis.degenerate
                assert b.boundary_tie == a.boundary_tie
                if a.null_basis.degenerate:
                    continue  # tied scores: only the span of their vectors is defined
                np.testing.assert_allclose(b.combined_basis(), a.combined_basis(),
                                           rtol=0.0, atol=1e-10)
                np.testing.assert_allclose(b.response_norms, scale * a.response_norms,
                                           rtol=1e-10)
                np.testing.assert_allclose(b.proportions, a.proportions, rtol=0.0, atol=1e-10)


class TestCanonicalAngleDistance:
    def test_identical(self):
        u = np.eye(4)[:2]
        assert canonical_angle_distance(u, u) == 0.0

    def test_orthogonal_lines(self):
        assert canonical_angle_distance(np.eye(3)[:1], np.eye(3)[1:2]) == pytest.approx(1.0)

    def test_45_degrees(self):
        mix = (np.eye(3)[0] + np.eye(3)[1]) / np.sqrt(2)
        assert canonical_angle_distance(np.eye(3)[:1], mix) == pytest.approx(0.5, abs=1e-12)
        assert canonical_angle_distance(mix, np.eye(3)[:1]) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_and_basis_invariant(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            u, _ = np.linalg.qr(rng.standard_normal((6, 3)))
            w, _ = np.linalg.qr(rng.standard_normal((6, 3)))
            d1 = canonical_angle_distance(u.T, w.T)
            d2 = canonical_angle_distance(w.T, u.T)
            assert d1 == pytest.approx(d2, abs=1e-9)
            rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            d3 = canonical_angle_distance((u @ rot).T, w.T)
            assert d1 == pytest.approx(d3, abs=1e-9)
            assert -1e-12 <= d1 <= 3.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            canonical_angle_distance(np.eye(4)[:2], np.eye(4)[:3])
        with pytest.raises(DimensionMismatch, match="^ambient dimensions differ: 3 vs 4$"):
            canonical_angle_distance(np.eye(3)[:1], np.eye(4)[:1])

    def test_non_orthonormal_rejected(self):
        with pytest.raises(InvalidMatrix):
            canonical_angle_distance(np.array([[1.0, 1.0, 0.0]]), np.eye(3)[:1])


class TestSpectralBounds:
    def test_eigen_response_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            g = random_psd(6, rng)
            lam = g.eig.eigenvalues
            scale = 1e-9 * max(1.0, lam[0])
            for i in range(6):
                norm = np.linalg.norm(g.matrix.entries @ g.eig.eigenvectors[:, i])
                assert abs(norm - lam[i]) <= scale

    def test_model_and_null_bounds(self):
        rng = np.random.default_rng(29)
        g = random_psd(6, rng, eigenvalues=[2.0, 1.4, 0.9, 0.3, 0.1, 0.02])
        lam = g.eig.eigenvalues
        vectors = g.eig.eigenvectors.T
        j = 3
        for _ in range(300):
            cm = rng.standard_normal(j)
            beta = cm @ vectors[:j] / np.linalg.norm(cm)
            assert np.linalg.norm(g.matrix.entries @ beta) >= lam[j - 1] - 1e-9
            cn = rng.standard_normal(6 - j)
            beta = cn @ vectors[j:] / np.linalg.norm(cn)
            assert np.linalg.norm(g.matrix.entries @ beta) <= lam[j] + 1e-9

    def test_max_response_bounded_by_top_eigenvalue(self):
        rng = np.random.default_rng(31)
        g = random_psd(6, rng)
        top = g.eig.eigenvalues[0]
        beta = rng.standard_normal((2000, 6))
        beta /= np.linalg.norm(beta, axis=1, keepdims=True)
        norms = np.linalg.norm(beta @ g.matrix.entries.T, axis=1)
        assert norms.max() <= top + 1e-9
