import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from genecon.core import (
    GMatrix,
    SymMatrix,
    TraitGrid,
    _symmetrized,
    clip_negative_eigenvalues,
    symmetric_eigen,
)
from genecon.errors import DimensionMismatch, InvalidGrid, InvalidMatrix


def random_orthogonal(k, rng):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def from_spectrum(eigenvalues, rng):
    q = random_orthogonal(len(eigenvalues), rng)
    return SymMatrix((q * np.asarray(eigenvalues, dtype=float)) @ q.T)


class TestTraitGrid:
    def test_gaps(self):
        grid = TraitGrid(np.array([11.0, 17.0, 23.0, 29.0, 35.0, 40.0]))
        assert grid.size == 6
        np.testing.assert_array_equal(grid.gaps, [6, 6, 6, 6, 5])
        assert grid.min_gap == 5.0

    def test_too_small(self):
        with pytest.raises(InvalidGrid):
            TraitGrid(np.array([1.0]))

    def test_not_increasing(self):
        with pytest.raises(InvalidGrid):
            TraitGrid(np.array([1.0, 3.0, 2.0]))
        with pytest.raises(InvalidGrid):
            TraitGrid(np.array([1.0, 1.0, 2.0]))

    def test_overflowing_span_rejected(self):
        # each gap is finite, but t[-1] - t[0] overflows to infinity
        with pytest.raises(InvalidGrid, match="overflows"):
            TraitGrid(np.array([-1e308, 0.0, 1e308]))

    def test_payload_round_trip(self):
        grid = TraitGrid(np.array([18.0, 26.0, 33.0, 39.0, 47.0, 57.0]))
        assert TraitGrid.from_payload(grid.to_payload()) == grid

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=9, unique=True))
    def test_sorted_floats_accepted(self, points):
        grid = TraitGrid(np.sort(np.array(points)))
        assert np.all(grid.gaps > 0)


class TestSymMatrix:
    def test_symmetrizes_exactly(self):
        m = SymMatrix(np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]]))
        np.testing.assert_array_equal(m.entries, m.entries.T)

    def test_rejects_asymmetry(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix(np.array([[1.0, 2.0], [2.5, 3.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix(np.zeros((2, 3)))

    def test_stack_check_names_first_failing_matrix(self):
        stack = np.array([np.eye(2)] * 4)
        stack[2, 0, 1] = 0.5
        stack[3, 0, 1] = 0.5
        with pytest.raises(InvalidMatrix, match=r"^replicate 2: matrix is asymmetric"):
            _symmetrized(stack)
        stack[1, 1, 1] = np.inf
        with pytest.raises(InvalidMatrix, match=r"^replicate 1: matrix entries must be finite$"):
            _symmetrized(stack)
        single = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InvalidMatrix, match=r"^matrix is asymmetric"):
            _symmetrized(single)

    def test_payload_round_trip(self):
        m = from_spectrum([3.0, 1.0, 0.5], np.random.default_rng(7))
        assert SymMatrix.from_payload(m.to_payload()) == m

    def test_payload_length_checked(self):
        with pytest.raises(InvalidMatrix):
            SymMatrix.from_payload({"dim": 2, "entries": [1.0, 2.0, 3.0]})


class TestSymmetricEigen:
    def test_identity(self):
        eig = symmetric_eigen(SymMatrix(np.eye(6)))
        np.testing.assert_array_equal(eig.eigenvalues, np.ones(6))
        np.testing.assert_array_equal(eig.eigenvectors, np.eye(6))
        assert eig.degenerate

    def test_diagonal_permutation(self):
        eig = symmetric_eigen(SymMatrix(np.diag([3.0, 1.0, 2.0])))
        np.testing.assert_array_equal(eig.eigenvalues, [3.0, 2.0, 1.0])
        expected = np.eye(3)[:, [0, 2, 1]]
        np.testing.assert_array_equal(eig.eigenvectors, expected)
        assert not eig.degenerate

    def test_2x2_hand_solved(self):
        # char poly of [[2,1],[1,2]]: (2-x)^2 - 1 = 0 -> x = 3, 1
        eig = symmetric_eigen(SymMatrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-12)
        s = 1 / np.sqrt(2)
        np.testing.assert_allclose(eig.eigenvectors[:, 0], [s, s], atol=1e-12)
        np.testing.assert_allclose(eig.eigenvectors[:, 1], [s, -s], atol=1e-12)

    def test_deterministic(self):
        m = from_spectrum([2.0, 0.7, -0.3, 0.1], np.random.default_rng(3))
        a = symmetric_eigen(m)
        b = symmetric_eigen(m)
        np.testing.assert_array_equal(a.eigenvalues, b.eigenvalues)
        np.testing.assert_array_equal(a.eigenvectors, b.eigenvectors)

    def test_zero_matrix_degenerate(self):
        # the tie scale is max(1, |largest|), so a zero spectrum ties throughout
        assert symmetric_eigen(SymMatrix(np.zeros((3, 3)))).degenerate

    def test_empty_matrix(self):
        eig = symmetric_eigen(SymMatrix(np.zeros((0, 0))))
        assert eig.eigenvalues.shape == (0,)
        assert eig.eigenvectors.shape == (0, 0)
        assert not eig.degenerate

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            symmetric_eigen(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    def test_random_batch_reconstruction(self):
        rng = np.random.default_rng(42)
        for trial in range(1000):
            k = int(rng.integers(2, 9))
            a = rng.standard_normal((k, k))
            scale_factor = (1e-6, 1.0, 1e6)[trial % 3]  # relative accuracy at any scale
            m = SymMatrix(scale_factor * (a + a.T))
            eig = symmetric_eigen(m)
            v = eig.eigenvectors
            rebuilt = (v * eig.eigenvalues) @ v.T
            assert np.linalg.norm(m.entries - rebuilt) <= 1e-8 * m.frobenius()
            ortho = v.T @ v
            assert np.abs(ortho - np.eye(k)).max() <= 1e-10
            assert np.all(np.diff(eig.eigenvalues) <= 0)

    def test_characteristic_polynomial_oracle(self):
        # independent root-solve of the characteristic polynomial, K <= 3
        rng = np.random.default_rng(99)
        for _ in range(200):
            k = int(rng.integers(2, 4))
            a = rng.standard_normal((k, k))
            m = SymMatrix(a + a.T)
            a = m.entries
            if k == 2:
                coeffs = [1.0, -np.trace(a), np.linalg.det(a)]
            else:
                minors = sum(
                    a[i, i] * a[j, j] - a[i, j] * a[j, i]
                    for i in range(3)
                    for j in range(i + 1, 3)
                )
                coeffs = [1.0, -np.trace(a), minors, -np.linalg.det(a)]
            roots = np.sort(np.real(np.roots(coeffs)))[::-1]
            lam = symmetric_eigen(m).eigenvalues
            scale = max(1.0, float(np.abs(lam).max()))
            np.testing.assert_allclose(lam, roots, atol=1e-8 * scale)

    def test_sign_convention(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.standard_normal((5, 5))
            m = SymMatrix(a + a.T)
            v = symmetric_eigen(m).eigenvectors
            for col in range(5):
                lead = np.nonzero(np.abs(v[:, col]) > 1e-8)[0][0]
                assert v[lead, col] > 0


class TestClipping:
    def test_diag_clip(self):
        g = clip_negative_eigenvalues(SymMatrix(np.diag([1.0, -1.0])), 0.0)
        np.testing.assert_array_equal(g.matrix.entries, np.diag([1.0, 0.0]))
        assert g.clipped_indices == (1,)
        assert g.rank == 1

    def test_eigenvalues_clipped_to_a_common_zero_are_degenerate(self):
        g = clip_negative_eigenvalues(SymMatrix(np.diag([2.0, 1.0, -0.3, -0.5])))
        np.testing.assert_array_equal(g.eigenvalues, [2.0, 1.0, 0.0, 0.0])
        assert g.eig.degenerate
        assert symmetric_eigen(g.matrix).degenerate

    def test_identity_untouched(self):
        m = SymMatrix(np.eye(4))
        g = clip_negative_eigenvalues(m, 0.0)
        np.testing.assert_array_equal(g.matrix.entries, np.eye(4))
        assert g.clipped_indices == ()

    def test_two_small_negatives(self):
        # spectrum shaped like a REML estimate: large leading value, two
        # slightly negative trailing values
        rng = np.random.default_rng(11)
        m = from_spectrum([183.7, 12.0, 4.0, 1.5, -0.21, -0.55], rng)
        g = clip_negative_eigenvalues(m, 0.0)
        assert g.clipped_indices == (4, 5)
        assert g.rank == 4
        np.testing.assert_array_equal(g.eigenvalues[4:], [0.0, 0.0])
        np.testing.assert_allclose(g.eigenvalues[:4], [183.7, 12.0, 4.0, 1.5], rtol=1e-12)

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            a = rng.standard_normal((6, 6))
            m = SymMatrix(a + a.T)
            once = clip_negative_eigenvalues(m, 0.0)
            twice = clip_negative_eigenvalues(once, 0.0)
            assert twice is once

    def test_eigenvectors_unchanged(self):
        # columns with well-separated eigenvalues agree up to sign between the
        # input decomposition and a fresh decomposition of the clipped matrix
        rng = np.random.default_rng(31)
        for _ in range(25):
            m = from_spectrum([5.0, 3.0, 1.0, -0.5, -2.0], rng)
            original = symmetric_eigen(m)
            clipped = clip_negative_eigenvalues(m, 0.0)
            fresh = symmetric_eigen(clipped.matrix)
            for col in range(3):  # clipped spectrum (5, 3, 1, 0, 0): first three separated
                dots = np.abs(fresh.eigenvectors.T @ original.eigenvectors[:, col])
                match = int(np.argmax(dots))
                assert match == col
                diff = min(
                    np.abs(fresh.eigenvectors[:, col] - original.eigenvectors[:, col]).max(),
                    np.abs(fresh.eigenvectors[:, col] + original.eigenvectors[:, col]).max(),
                )
                assert diff < 1e-8

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            clip_negative_eigenvalues(SymMatrix(np.eye(2)), -1.0)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="finite"):
            clip_negative_eigenvalues(SymMatrix(np.eye(2)), tol)

    def test_middle_clip_with_positive_tol(self):
        g = clip_negative_eigenvalues(SymMatrix(np.diag([5.0, 0.5, 0.2])), 1.0)
        np.testing.assert_array_equal(g.eigenvalues, [5.0, 0.0, 0.0])
        assert g.clipped_indices == (1, 2)


class TestGMatrix:
    def test_rejects_indefinite(self):
        m = SymMatrix(np.diag([1.0, -1.0]))
        with pytest.raises(InvalidMatrix):
            GMatrix(m, symmetric_eigen(m))

    def test_grid_dimension_checked(self):
        m = SymMatrix(np.eye(3))
        grid = TraitGrid(np.array([0.0, 1.0]))
        with pytest.raises(DimensionMismatch):
            GMatrix(m, symmetric_eigen(m), grid=grid)

    def test_immutability(self):
        g = clip_negative_eigenvalues(SymMatrix(np.eye(3)), 0.0)
        with pytest.raises(ValueError):
            g.matrix.entries[0, 0] = 5.0
