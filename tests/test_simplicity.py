import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from genecon.core import SymMatrix, TraitGrid, _eigh, _ties, symmetric_eigen
from genecon.errors import (
    DimensionMismatch,
    GridTooSmall,
    InvalidMatrix,
    NotUnitVector,
    RankDeficientSubspace,
)
from genecon.simplicity import (
    SimplicityMeasure,
    custom_measure,
    first_difference_measure,
    first_difference_penalty,
    measure_from_kind,
    second_difference_measure,
    second_difference_penalty,
    _simplicity_vectors,
    simplicity_basis,
    simplicity_score,
    sparseness_measure,
)
from genecon.spaces import canonical_angle_distance


def equal_grid(k, gap=1.0):
    return TraitGrid(np.arange(k, dtype=float) * gap)


def temp_grid():
    return TraitGrid(np.array([11.0, 17.0, 23.0, 29.0, 35.0, 40.0]))


def random_subspace(k, dims, rng):
    q, _ = np.linalg.qr(rng.standard_normal((k, dims)))
    return q.T


class TestFirstDifferencePenalty:
    def test_k3_equal_gaps(self):
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        np.testing.assert_array_equal(first_difference_penalty(equal_grid(3)).entries, expected)

    def test_gap_weights(self):
        pen = first_difference_penalty(temp_grid()).entries
        off = np.diag(pen, 1)
        np.testing.assert_allclose(off, [-1 / 6, -1 / 6, -1 / 6, -1 / 6, -1 / 5])

    def test_constant_annihilated(self):
        pen = first_difference_penalty(temp_grid()).entries
        v = np.ones(6) / np.sqrt(6)
        assert abs(v @ pen @ v) <= 1e-15
        # equal gaps make the weights identical, so cancellation is exact
        pen_eq = first_difference_penalty(equal_grid(6)).entries
        assert np.ones(6) @ pen_eq @ np.ones(6) == 0.0

    def test_nonnegative_definite(self):
        lam = symmetric_eigen(first_difference_penalty(temp_grid())).eigenvalues
        assert lam.min() >= -1e-12


class TestFirstDifferenceMeasure:
    def test_constant_scores_four(self):
        for grid in (temp_grid(), equal_grid(4, 2.5)):
            v = np.ones(grid.size) / np.sqrt(grid.size)
            assert abs(simplicity_score(v, first_difference_measure(grid)) - 4.0) <= 1e-12

    def test_basis_vector_equal_gaps(self):
        measure = first_difference_measure(equal_grid(6))
        e1 = np.eye(6)[0]
        assert simplicity_score(e1, measure) == pytest.approx(3.0, abs=1e-12)

    def test_eigenvalues_within_bound(self):
        lam = symmetric_eigen(first_difference_measure(temp_grid()).lambda_matrix).eigenvalues
        assert lam.min() >= -1e-9 and lam.max() <= 4.0 + 1e-9

    @given(hnp.arrays(np.float64, 6, elements=st.floats(-10, 10)))
    def test_random_unit_scores_bounded(self, raw):
        norm = np.linalg.norm(raw)
        if norm < 1e-3:
            return
        score = simplicity_score(raw / norm, first_difference_measure(temp_grid()))
        assert -1e-9 <= score <= 4.0 + 1e-9


class TestSecondDifferencePenalty:
    def test_needs_three_points(self):
        with pytest.raises(GridTooSmall):
            second_difference_penalty(equal_grid(2))

    def test_annihilates_constant_and_linear(self):
        # normalized constant and linear directions clear the stated bound;
        # arbitrary affine vectors are annihilated up to float64 evaluation
        # noise, which scales with the squared vector norm
        for grid in (temp_grid(), TraitGrid(np.array([18.0, 26.0, 33.0, 39.0, 47.0, 57.0]))):
            pen = second_difference_penalty(grid).entries
            t = grid.points
            for raw in (np.ones(grid.size), t.copy()):
                v = raw / np.linalg.norm(raw)
                assert abs(v @ pen @ v) <= 1e-18
            for a, b in ((1.0, 0.0), (0.0, 0.1), (2.0, -0.3)):
                v = a + b * t
                assert abs(v @ pen @ v) <= 2e-16 * max(1.0, v @ v)

    def test_annihilates_affine_exactly_on_integer_grid(self):
        # integer gaps keep every assembled entry exactly representable
        pen = second_difference_penalty(equal_grid(5)).entries
        t = equal_grid(5).points
        for a in (-3.0, -1.0, 0.5, 2.0):
            for b in (-0.5, -0.25, 0.75, 1.0):
                v = a + b * t
                assert v @ pen @ v == 0.0

    def test_single_bend_value(self):
        # equal gaps of 1: curvature estimate of (1,0,1) is 2, midpoint weight is 1
        pen = second_difference_penalty(equal_grid(3)).entries
        v = np.array([1.0, 0.0, 1.0])
        assert v @ pen @ v == pytest.approx(4.0, abs=1e-12)

    def test_converges_to_curvature_integral(self):
        # quadratic form approaches the integrated squared second derivative
        # under grid refinement: f = sin on [0, pi] -> pi/2
        target = np.pi / 2
        errors = []
        for k in (10, 40, 160):
            rng = np.random.default_rng(k)
            inner = np.sort(rng.uniform(0.02, np.pi - 0.02, size=k - 2))
            t = np.concatenate([[0.0], inner, [np.pi]])
            pen = second_difference_penalty(TraitGrid(t)).entries
            v = np.sin(t)
            errors.append(abs(v @ pen @ v - target) / target)
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3

    def test_measure_conversion(self):
        measure = second_difference_measure(temp_grid())
        t = temp_grid().points
        line = 1.0 + 0.05 * t
        line /= np.linalg.norm(line)
        # affine vectors have zero penalty, hence maximal converted score
        assert simplicity_score(line, measure) == pytest.approx(
            measure.score_upper_bound, abs=1e-9
        )


class TestSparseness:
    def test_constant_scores_zero(self):
        v = np.ones(6) / np.sqrt(6)
        assert abs(simplicity_score(v, sparseness_measure(6))) <= 1e-12

    def test_mean_zero_scores_one(self):
        v = np.array([1.0, -1.0]) / np.sqrt(2)
        assert simplicity_score(v, sparseness_measure(2)) == pytest.approx(1.0, abs=1e-12)

    def test_basis_vector(self):
        assert simplicity_score(np.eye(6)[0], sparseness_measure(6)) == pytest.approx(
            5 / 6, abs=1e-12
        )

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            sparseness_measure(1)


class TestSimplicityScore:
    def test_requires_unit_vector(self):
        with pytest.raises(NotUnitVector):
            simplicity_score(np.array([1.0, 1.0]), sparseness_measure(2))

    def test_zero_form(self):
        measure = custom_measure(SymMatrix(np.zeros((3, 3))))
        assert simplicity_score(np.eye(3)[1], measure) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_vector_rejected(self, bad):
        with pytest.raises(NotUnitVector, match="^expected a unit vector, got norm "):
            simplicity_score([bad, 0.0, 0.0, 0.0, 0.0, 0.0], first_difference_measure(temp_grid()))


class TestSimplicityBasis:
    def test_full_space_is_eigenbasis(self):
        measure = first_difference_measure(equal_grid(3))
        basis = simplicity_basis(np.eye(3), measure)
        np.testing.assert_allclose(basis.scores, [4.0, 3.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(basis.vectors[0], np.ones(3) / np.sqrt(3), atol=1e-10)
        np.testing.assert_allclose(basis.vectors[1], [1, 0, -1] / np.sqrt(2), atol=1e-10)
        np.testing.assert_allclose(basis.vectors[2], [1, -2, 1] / np.sqrt(6), atol=1e-10)

    def test_hand_solved_2d_subspace(self):
        # P' Lambda P over span{e1, e2} is [[3,1],[1,2]]: eigenvalues (5±sqrt 5)/2
        measure = first_difference_measure(equal_grid(3))
        basis = simplicity_basis(np.eye(3)[:2], measure)
        expected = np.array([(5 + np.sqrt(5)) / 2, (5 - np.sqrt(5)) / 2])
        np.testing.assert_allclose(basis.scores, expected, atol=1e-10)
        simplest = np.array([1.0, (np.sqrt(5) - 1) / 2, 0.0])
        simplest /= np.linalg.norm(simplest)
        np.testing.assert_allclose(basis.vectors[0], simplest, atol=1e-10)

    def test_one_dimensional_subspace(self):
        measure = first_difference_measure(temp_grid())
        u = np.array([1.0, 2.0, 0.0, -1.0, 0.5, 0.25])
        u /= np.linalg.norm(u)
        basis = simplicity_basis(u[None], measure)
        assert len(basis) == 1
        np.testing.assert_allclose(np.abs(basis.vectors[0]), np.abs(u), atol=1e-10)
        assert basis.scores[0] == pytest.approx(simplicity_score(u, measure), abs=1e-10)

    def test_empty_subspace(self):
        basis = simplicity_basis(np.empty((0, 6)), first_difference_measure(temp_grid()))
        assert len(basis) == 0

    def test_rank_deficient_rejected(self):
        measure = first_difference_measure(equal_grid(3))
        rows = np.array([[1.0, 0.0, 0.0], [1.0, 1e-14, 0.0]])
        with pytest.raises(RankDeficientSubspace):
            simplicity_basis(rows, measure)

    def test_dependent_row_named(self):
        measure = first_difference_measure(equal_grid(3))
        rows = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        with pytest.raises(RankDeficientSubspace, match="vector 2"):
            simplicity_basis(rows, measure)

    def test_orthonormal_output(self):
        rng = np.random.default_rng(8)
        measure = first_difference_measure(temp_grid())
        for dims in (1, 2, 3, 4, 5):
            basis = simplicity_basis(random_subspace(6, dims, rng), measure)
            gram = basis.vectors @ basis.vectors.T
            assert np.abs(gram - np.eye(dims)).max() <= 1e-10
            assert np.all(np.diff(basis.scores) <= 1e-12)

    def test_stays_in_subspace(self):
        rng = np.random.default_rng(9)
        measure = first_difference_measure(temp_grid())
        p = random_subspace(6, 3, rng)
        basis = simplicity_basis(p, measure)
        proj = p.T @ p  # projector onto the subspace
        for vec in basis.vectors:
            assert np.linalg.norm(vec - proj @ vec) <= 1e-10

    def test_spans_whole_subspace(self):
        # completeness: each input vector projects onto the output span
        # without residual
        rng = np.random.default_rng(14)
        measure = first_difference_measure(temp_grid())
        for dims in (1, 3, 5):
            p = random_subspace(6, dims, rng)
            basis = simplicity_basis(p, measure)
            out_proj = basis.vectors.T @ basis.vectors
            for vec in p:
                assert np.linalg.norm(vec - out_proj @ vec) <= 1e-8

    def test_scores_match_lapack_oracle(self):
        # independent eigensolver on the reduced form P' Lambda P
        rng = np.random.default_rng(15)
        measure = first_difference_measure(temp_grid())
        for dims in (1, 2, 3, 4, 5):
            p = random_subspace(6, dims, rng)
            basis = simplicity_basis(p, measure)
            reduced = p @ measure.lambda_matrix.entries @ p.T
            reference = np.sort(np.linalg.eigvalsh(reduced))[::-1]
            np.testing.assert_allclose(basis.scores, reference, atol=1e-10)

    def test_no_random_vector_beats_first_score(self):
        rng = np.random.default_rng(10)
        measure = first_difference_measure(temp_grid())
        for trial in range(100):
            dims = 1 + trial % 5
            p = random_subspace(6, dims, rng)
            basis = simplicity_basis(p, measure)
            coef = rng.standard_normal((10_000, dims))
            coef /= np.linalg.norm(coef, axis=1, keepdims=True)
            reduced = p @ measure.lambda_matrix.entries @ p.T
            scores = np.einsum("ij,jk,ik->i", coef, reduced, coef)
            assert scores.max() <= basis.scores[0] + 1e-8

    def test_score_sum_is_trace_and_basis_free(self):
        rng = np.random.default_rng(12)
        measure = first_difference_measure(temp_grid())
        p = random_subspace(6, 3, rng)
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        q = rotation.T @ p  # same subspace, different orthonormal basis
        b1 = simplicity_basis(p, measure)
        b2 = simplicity_basis(q, measure)
        trace = np.trace(p @ measure.lambda_matrix.entries @ p.T)
        assert b1.scores.sum() == pytest.approx(trace, abs=1e-9)
        np.testing.assert_allclose(b1.scores, b2.scores, atol=1e-9)

    def test_span_invariance_under_basis_change(self):
        rng = np.random.default_rng(13)
        measure = first_difference_measure(temp_grid())
        for dims in (2, 3, 4):
            p = random_subspace(6, dims, rng)
            rotation, _ = np.linalg.qr(rng.standard_normal((dims, dims)))
            b1 = simplicity_basis(p, measure)
            b2 = simplicity_basis(rotation.T @ p, measure)
            assert canonical_angle_distance(b1.vectors, b2.vectors) <= 1e-8

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatch,
                           match=r"^subspace_basis must have shape \(\*, 6\), got \(4, 4\)$"):
            simplicity_basis(np.eye(4), first_difference_measure(temp_grid()))


@st.composite
def symmetric_stacks(draw):
    """(n, K, K) exactly symmetric matrices: random, zero, tied diagonals, repeated eigenvalues."""
    k = draw(st.integers(2, 8))
    entries = st.floats(-10, 10, allow_nan=False, allow_infinity=False)
    mats = []
    for kind in draw(st.lists(st.sampled_from(["random", "zero", "tied", "repeated"]),
                              min_size=1, max_size=5)):
        if kind == "random":
            a = draw(hnp.arrays(np.float64, (k, k), elements=entries))
            mats.append(a + a.T)
        elif kind == "zero":
            mats.append(np.zeros((k, k)))
        elif kind == "tied":
            diagonal = hnp.arrays(np.float64, k, elements=st.sampled_from([-1.0, 0.0, 2.0]))
            mats.append(np.diag(draw(diagonal)))
        else:
            a = draw(hnp.arrays(np.float64, (k, k), elements=st.floats(-1, 1)))
            q, _ = np.linalg.qr(a + 3.0 * np.eye(k))
            spectrum = draw(hnp.arrays(np.float64, k, elements=st.sampled_from([0.0, 1.0, 2.5])))
            m = (q * spectrum) @ q.T
            mats.append((m + m.T) / 2.0)
    return np.array(mats)


class TestStackedHelpers:
    """The stacked forms the replicated study uses equal the single-matrix calls exactly."""

    @given(symmetric_stacks())
    def test_eigen_slices_equal_symmetric_eigen(self, stack):
        lam, v = _eigh(stack)
        degenerate = _ties(lam).any(axis=-1)
        for i, m in enumerate(stack):
            single = symmetric_eigen(m)
            np.testing.assert_array_equal(lam[i], single.eigenvalues)
            np.testing.assert_array_equal(v[i], single.eigenvectors)
            assert degenerate[i] == single.degenerate

    @given(symmetric_stacks(), st.data())
    def test_simplicity_slices_equal_simplicity_basis(self, stack, data):
        # the study's input: a block of trailing eigenvector columns per matrix,
        # which is what a partition passes for one matrix
        k = stack.shape[-1]
        dims = data.draw(st.integers(1, k))
        cols = _eigh(stack)[1][..., k - dims:]
        lam = first_difference_measure(equal_grid(k)).lambda_matrix.entries
        stacked = _simplicity_vectors(cols, lam)
        for i in range(len(stack)):
            for whole, single in zip(stacked, _simplicity_vectors(cols[i], lam)):
                np.testing.assert_array_equal(whole[i], single)


class TestMeasureConstruction:
    def test_rejects_indefinite_form(self):
        with pytest.raises(InvalidMatrix):
            SimplicityMeasure(SymMatrix(np.diag([1.0, -1.0])), 1.0, "custom")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="^unknown measure kind 'rough'$"):
            SimplicityMeasure(SymMatrix(np.eye(2)), 1.0, "rough")

    def test_first_difference_form_scores_at_most_four(self):
        message = (r"^largest first-difference form eigenvalue must be in \[0, 4.000000004\], "
                   r"got 5.0$")
        with pytest.raises(InvalidMatrix, match=message):
            SimplicityMeasure(SymMatrix(np.diag([5.0, 1.0])), 5.0, "first-difference")

    @pytest.mark.parametrize("unit", [1e-12, 1.0, 1e12])
    def test_acceptance_does_not_depend_on_units(self, unit):
        with pytest.raises(InvalidMatrix):
            SimplicityMeasure(SymMatrix(unit * np.diag([1.0, -1e-3])), unit, "custom")
        penalty = second_difference_penalty(temp_grid()).entries
        custom_measure(SymMatrix(unit * penalty), small_is_simple=True)

    def test_custom_conversion_flips_order(self):
        # small = simple penalty becomes big = simple after conversion
        grid = temp_grid()
        penalty = first_difference_penalty(grid)
        converted = custom_measure(penalty, small_is_simple=True)
        const = np.ones(6) / np.sqrt(6)
        rough = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0]) / np.sqrt(6)
        assert simplicity_score(const, converted) > simplicity_score(rough, converted)
        assert converted.score_upper_bound == pytest.approx(
            symmetric_eigen(penalty).eigenvalues[0], abs=1e-9
        )

    def test_measure_from_kind(self):
        grid = temp_grid()
        assert measure_from_kind("d1", grid).kind == "first-difference"
        assert measure_from_kind("d2", grid).kind == "second-difference"
        assert measure_from_kind("sparse", grid).kind == "sparseness"
        with pytest.raises(ValueError):
            measure_from_kind("bogus", grid)
