import re
from dataclasses import fields, is_dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from genecon.core import (
    GMatrix,
    SymMatrix,
    TraitGrid,
    _check_psd,
    _symmetrized,
    _ties,
    clip_negative_eigenvalues,
    json_object,
    symmetric_eigen,
)
from genecon.errors import (DimensionMismatch, GridTooSmall, InsufficientData, InvalidCovariance,
                            InvalidGrid, InvalidMatrix)
from genecon.estimate import FamilyDataset, anova_estimate
from genecon.reference import study_params
from genecon.simplicity import (SimplicityMeasure, first_difference_measure,
                                second_difference_penalty, simplicity_basis, simplicity_score,
                                sparseness_measure)
from genecon.simulate import KEY_MAX, SimulationParams, generate_dataset, run_study
from genecon.spaces import (breeders_response, canonical_angle_distance, partition,
                            response_to_selection, variance_proportions)


def random_orthogonal(k, rng):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def from_spectrum(eigenvalues, rng):
    q = random_orthogonal(len(eigenvalues), rng)
    return SymMatrix((q * np.asarray(eigenvalues, dtype=float)) @ q.T)


class TestJsonObject:
    def test_object_returned_as_it_is(self):
        payload = {"a": 1, "c": 2}
        assert json_object(payload, ("a",), ("b", "c")) is payload

    @pytest.mark.parametrize("value, reason", [
        ([{"a": 1}], "expected a JSON object, got list"),
        (None, "expected a JSON object, got NoneType"),
        ({"zz": 1, "yy": 2}, "unknown key 'yy'"),  # the least, though 'a' and 'b' are missing
        ({"b": 1, "c": 2}, "missing field 'a'"),
        ({}, "missing field 'a'"),  # the first required key
    ])
    def test_one_error_in_one_order(self, value, reason):
        with pytest.raises(ValueError, match=f"^{reason}$"):
            json_object(value, ("a", "b"), ("c",))


GRID3 = TraitGrid(np.array([1.0, 2.0, 4.0]))
G3 = clip_negative_eigenvalues(SymMatrix(np.diag([3.0, 2.0, 1.0])), grid=GRID3)
E3 = SymMatrix(np.eye(3))
MEASURE3 = first_difference_measure(GRID3)
PARAMS3 = SimulationParams(mu=np.zeros(3), g=G3, e=E3, sigma2=0.1, n_families=2,
                           family_size=2, design="half-sib", seed=0)

# every array argument of the public API: (its name in messages, a call taking it, a valid value)
ARRAY_ARGUMENTS = {
    "TraitGrid.points": ("points", TraitGrid, [1, 2, 4]),
    "SymMatrix.entries": ("entries", SymMatrix, [[2, 1], [1, 3]]),
    "symmetric_eigen": ("entries", symmetric_eigen, [[2, 1], [1, 3]]),
    "clip_negative_eigenvalues.m": ("entries", clip_negative_eigenvalues, [[1, 2], [2, 1]]),
    "FamilyDataset.values": ("values", lambda v: FamilyDataset(v, GRID3, "half-sib"),
                             [[[1, 2, 3], [2, 0, 1]], [[4, 1, 0], [0, 3, 2]]]),
    "simplicity_score": ("v", lambda v: simplicity_score(v, MEASURE3), [0, 1, 0]),
    "simplicity_basis": ("subspace_basis", lambda b: simplicity_basis(b, MEASURE3),
                         [[1, 1, 0], [0, 1, 1]]),
    "response_to_selection": ("selection gradient", lambda b: response_to_selection(G3, b),
                              [1, 2, 3]),
    "breeders_response": ("selection differential", lambda s: breeders_response(G3, E3, s),
                          [1, 2, 3]),
    "variance_proportions": ("basis", lambda b: variance_proportions(G3, b),
                             [[1, 0, 0], [0, 0, 1]]),
    "canonical_angle_distance.u": ("first basis",
                                   lambda u: canonical_angle_distance(u, [[0.0, 1.0, 0.0]]),
                                   [[1, 0, 0]]),
    "canonical_angle_distance.w": ("second basis",
                                   lambda w: canonical_angle_distance([[1.0, 0.0, 0.0]], w),
                                   [[0, 1, 0]]),
    "SimulationParams.mu": ("mu", lambda mu: replace(PARAMS3, mu=mu), [1, 2, 3]),
}
# every scalar argument: (its name in messages, a call taking it)
SCALAR_ARGUMENTS = {
    "clip_negative_eigenvalues.tol": (
        "clip tolerance", lambda t: clip_negative_eigenvalues(SymMatrix(np.diag([1.0, 0.125])), t)),
    "SimplicityMeasure.score_upper_bound": (
        "score_upper_bound", lambda b: SimplicityMeasure(SymMatrix(np.eye(2)), b, "custom")),
    "SimulationParams.sigma2": ("sigma2", lambda s: replace(PARAMS3, sigma2=s)),
}
NOT_NUMBERS = {"str": "1", "bool": True, "None": None, "complex": 1j}
# the array arguments whose last axis has a fixed length
FIXED_LENGTH = {"FamilyDataset.values", "simplicity_score", "simplicity_basis",
                "response_to_selection", "breeders_response", "variance_proportions",
                "canonical_angle_distance.w", "SimulationParams.mu"}
SHAPE_CHANGES = [(key, change) for key in ARRAY_ARGUMENTS
                 for change in ("extra-axis", "axis-fewer", "one-longer")
                 if change != "one-longer" or key in FIXED_LENGTH]


def _with_first_entry(value, entry):
    """The nested list ``value`` with its first number replaced by ``entry``."""
    return [_with_first_entry(value[0], entry), *value[1:]] if isinstance(value, list) else entry


def _state(x):
    """Everything a result holds, arrays by shape, dtype and bytes: equal means identical."""
    if is_dataclass(x):
        return type(x), tuple(_state(getattr(x, f.name)) for f in fields(x))
    if isinstance(x, np.ndarray):
        return x.shape, x.dtype.str, x.tobytes()
    return type(x), x


class TestNumberReader:
    """One rule for every number the public API takes: nothing but a real number is read."""

    @pytest.mark.parametrize("bad", [*NOT_NUMBERS.values(), [1.0, 2.0]],
                             ids=[*NOT_NUMBERS, "ragged"])
    @pytest.mark.parametrize("key", ARRAY_ARGUMENTS)
    def test_array_entry_that_is_not_a_number_is_named(self, key, bad):
        name, call, valid = ARRAY_ARGUMENTS[key]
        with pytest.raises(ValueError, match=f"^each entry of {name} must be a number, got "):
            call(_with_first_entry(valid, bad))

    @pytest.mark.parametrize("bad", [np.array([True, False]), np.array(["1"])],
                             ids=["bool-array", "str-array"])
    @pytest.mark.parametrize("key", ARRAY_ARGUMENTS)
    def test_array_of_another_dtype_is_named(self, key, bad):
        name, call, _ = ARRAY_ARGUMENTS[key]
        with pytest.raises(ValueError, match=f"^each entry of {name} must be a number, got "):
            call(bad)

    @pytest.mark.parametrize("bad", [*NOT_NUMBERS.values(), [1.0, [2.0]]],
                             ids=[*NOT_NUMBERS, "ragged"])
    @pytest.mark.parametrize("key", SCALAR_ARGUMENTS)
    def test_scalar_that_is_not_a_number_is_named(self, key, bad):
        name, call = SCALAR_ARGUMENTS[key]
        with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
            call(bad)

    def test_nesting_numpy_cannot_lay_out_is_named(self):
        with pytest.raises(ValueError, match="^entries must be an array of numbers, got "):
            SymMatrix([np.zeros((2, 2)), np.zeros((2, 3))])

    def test_a_number_beyond_float_range_is_named(self):
        with pytest.raises(ValueError, match="^sigma2 is out of range: int too large"):
            replace(PARAMS3, sigma2=10**400)

    @pytest.mark.parametrize("dtype", [np.int64, np.float32])
    @pytest.mark.parametrize("key", ARRAY_ARGUMENTS)
    def test_int_and_float32_arrays_read_as_their_float64_casts(self, key, dtype):
        _, call, valid = ARRAY_ARGUMENTS[key]
        given = np.array(valid, dtype=dtype)
        assert _state(call(given)) == _state(call(given.astype(float)))

    @pytest.mark.parametrize("number", [np.float32(0.25), Fraction(1, 4)],
                             ids=["float32", "Fraction"])
    @pytest.mark.parametrize("key", SCALAR_ARGUMENTS)
    def test_numpy_and_fraction_scalars_are_read_as_floats(self, key, number):
        _, call = SCALAR_ARGUMENTS[key]
        assert _state(call(number)) == _state(call(0.25))


def _reshaped(valid, change: str) -> np.ndarray:
    """``valid`` with one extra leading axis, one axis fewer, or its last axis one longer."""
    a = np.array(valid, dtype=float)
    if change == "extra-axis":
        return a[None]
    if change == "axis-fewer":
        return a[0]
    return np.concatenate([a, np.zeros(a.shape[:-1] + (1,))], axis=-1)


class TestShapeRule:
    """One rule for every array the public API takes: any other rank or length is named."""

    @pytest.mark.parametrize("form", ["list", "ndarray"])
    @pytest.mark.parametrize("key, change", SHAPE_CHANGES)
    def test_array_of_another_shape_is_named(self, key, change, form):
        name, call, valid = ARRAY_ARGUMENTS[key]
        bad = _reshaped(valid, change)
        got = re.escape(str(bad.shape))
        with pytest.raises(DimensionMismatch, match=rf"^{name} must have shape \(.+\), got {got}$"):
            call(bad.tolist() if form == "list" else bad)


# every bounded scalar argument of the public API:
# (its name in messages, a call taking it, its least value, its greatest or None, its error)
BOUNDED_ARGUMENTS = {
    "clip_negative_eigenvalues.tol": (*SCALAR_ARGUMENTS["clip_negative_eigenvalues.tol"],
                                      0, None, ValueError),
    "SimulationParams.sigma2": (*SCALAR_ARGUMENTS["SimulationParams.sigma2"],
                                0, None, InvalidCovariance),
    "SimulationParams.seed": ("seed", lambda s: replace(PARAMS3, seed=s), 0, KEY_MAX, ValueError),
    "SimulationParams.n_families": ("n_families", lambda n: replace(PARAMS3, n_families=n),
                                    2, None, ValueError),
    "SimulationParams.family_size": ("family_size", lambda n: replace(PARAMS3, family_size=n),
                                     2, None, ValueError),
    "generate_dataset.replicate": ("replicate", lambda r: generate_dataset(PARAMS3, r),
                                   0, KEY_MAX, ValueError),
    "run_study.reps": ("reps", lambda n: run_study(PARAMS3, n, MEASURE3, null_dim=1),
                       1, None, ValueError),
    "run_study.null_dim": ("null_dim", lambda d: run_study(PARAMS3, 1, MEASURE3, null_dim=d),
                           1, 2, ValueError),
    "partition.j": ("j", lambda j: partition(G3, j, MEASURE3), 0, 3, ValueError),
    "sparseness_measure.k": ("k", sparseness_measure, 2, None, ValueError),
    "SymMatrix.from_payload.dim": (
        "malformed matrix payload: dim",
        lambda d: SymMatrix.from_payload({"dim": d, "entries": [1.0] * d * d}),
        1, None, InvalidMatrix),
}
REAL_BOUNDED = {"clip_negative_eigenvalues.tol", "SimulationParams.sigma2"}
BOUNDS = [(key, side) for key, (*_, high, _) in BOUNDED_ARGUMENTS.items()
          for side in ("low", "high") if side == "low" or high is not None]
# every bounded size of an input: (a call on an input of size n, its least size, the size's
# name in messages, its error)
BOUNDED_SIZES = {
    "TraitGrid.points": (lambda n: TraitGrid(np.arange(n, dtype=float)), 2, "number of points",
                         InvalidGrid),
    "SymMatrix.entries": (lambda n: SymMatrix(np.eye(n)), 1, "dim", InvalidMatrix),
    "FamilyDataset.values.families": (
        lambda n: FamilyDataset(np.zeros((n, 2, 3)), GRID3, "half-sib"), 2, "n_families",
        InsufficientData),
    "FamilyDataset.values.members": (
        lambda n: FamilyDataset(np.zeros((2, n, 3)), GRID3, "half-sib"), 2, "family_size",
        InsufficientData),
    "second_difference_penalty.grid": (
        lambda n: second_difference_penalty(TraitGrid(np.arange(n, dtype=float))), 3,
        "number of points", GridTooSmall),
}


def _one_past(bound, key: str, step: int):
    """The value one step beyond ``bound``: the adjacent float for a real, else bound + step."""
    return np.nextafter(float(bound), step * np.inf).item() if key in REAL_BOUNDED else bound + step


class TestRangeRule:
    """One rule for every bounded input: each bound is accepted, one past it is named."""

    @pytest.mark.parametrize("key, side", BOUNDS)
    def test_each_bound_is_accepted(self, key, side):
        _, call, low, high, _ = BOUNDED_ARGUMENTS[key]
        call(low if side == "low" else high)

    @pytest.mark.parametrize("key, side", BOUNDS)
    def test_one_past_a_bound_is_named(self, key, side):
        name, call, low, high, error = BOUNDED_ARGUMENTS[key]
        value = _one_past(low, key, -1) if side == "low" else _one_past(high, key, 1)
        bound = f"at least {low}" if high is None else f"in [{low}, {high}]"
        with pytest.raises(error, match=f"^{re.escape(f'{name} must be {bound}, got {value}')}$"):
            call(value)

    @pytest.mark.parametrize("key", BOUNDED_ARGUMENTS)
    def test_bool_is_rejected(self, key):
        name, call, _, _, error = BOUNDED_ARGUMENTS[key]
        kind = "a number" if key in REAL_BOUNDED else "an integer"
        with pytest.raises((ValueError, error), match=f"^{name} must be {kind}, got True$"):
            call(True)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("key", sorted(REAL_BOUNDED))
    def test_bounded_real_must_be_finite(self, key, value):
        name, call, _, _, error = BOUNDED_ARGUMENTS[key]
        with pytest.raises(error, match=f"^{name} must be finite, got {value}$"):
            call(value)

    @pytest.mark.parametrize("key", BOUNDED_SIZES)
    def test_size_below_its_least_is_named(self, key):
        call, least, name, error = BOUNDED_SIZES[key]
        call(least)
        with pytest.raises(error, match=f"^{name} must be at least {least}, got {least - 1}$"):
            call(least - 1)

    @pytest.mark.parametrize("k", [2.5, "3", None])
    def test_sparseness_dimension_is_an_integer(self, k):
        with pytest.raises(ValueError, match=f"^k must be an integer, got {re.escape(repr(k))}$"):
            sparseness_measure(k)

    def test_integral_float_dimension_is_read_as_int(self):
        assert sparseness_measure(3.0) == sparseness_measure(3)

    def test_non_finite_spectrum_is_rejected(self):
        with pytest.raises(InvalidMatrix, match=r"^largest \|eigenvalue\| of G must be in \[0, "
                                                r"8.988465674311579e\+307\], got nan$"):
            _check_psd(np.array([np.nan, 1.0]), "G")

    @pytest.mark.parametrize("entries, limit, largest", [
        (np.full((2, 2), 1e308), "8.988465674311579e+307", "inf"),
        (np.diag([1e308, 1e308, 1.0]), "5.992310449541053e+307", "1e+308"),
    ], ids=["2x2-of-1e308", "diag-1e308-1e308-1"])
    def test_spectrum_beyond_float_range_over_k_is_rejected(self, entries, limit, largest):
        # the K eigenvalues of a G must sum without overflow; symmetrizing keeps the
        # finite entries finite, so the error names the spectrum, not the entries
        m = SymMatrix(entries)
        np.testing.assert_array_equal(m.entries, entries)
        message = f"largest |eigenvalue| of G must be in [0, {limit}], got {largest}"
        with pytest.raises(InvalidMatrix, match=f"^{re.escape(message)}$"):
            clip_negative_eigenvalues(m)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidGrid, match="^measurement points must be finite$"):
            TraitGrid(np.array([1.0, bad, 2.0]))

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

    @pytest.mark.parametrize("first, second", [(2.0**40, 2.0**-40), (2.0**-40, 2.0**40)])
    def test_stack_members_keep_their_own_verdicts(self, first, second):
        # members 2**80 apart: a tolerance from the whole stack's largest entry
        # would pass an asymmetric small member after a large symmetric one, and
        # a floor at 1 would too
        a = np.random.default_rng(8).standard_normal((3, 3))
        sym, near, skew = a + a.T, a + a.T, a + a.T
        near[0, 1] += 1e-12 * np.abs(sym).max()  # within SYMMETRY_RTOL
        skew[0, 1] += 1e-8 * np.abs(sym).max()
        accepted = np.array([first * sym, second * near, second * sym, first * near])
        np.testing.assert_array_equal(_symmetrized(accepted),
                                      [_symmetrized(m) for m in accepted])
        for c in (first, second):
            with pytest.raises(InvalidMatrix, match=r"^matrix is asymmetric"):
                _symmetrized(c * skew)
            with pytest.raises(InvalidMatrix, match=r"^replicate 2: matrix is asymmetric"):
                _symmetrized(np.array([first * sym, second * near, c * skew, first * skew]))

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
        # a zero gap is at most any multiple of the largest |value|, so a zero spectrum ties
        assert symmetric_eigen(SymMatrix(np.zeros((3, 3)))).degenerate

    def test_ties_of_a_stack_keep_each_members_verdict(self):
        # each row is judged by its own largest |value|, so scaling a row by a
        # power of two, or stacking it with rows 2**80 larger, changes no flag
        v = np.array([3.0, 2.0, 2.0 - 1e-9, 0.5, 0.5, 0.0])  # a gap of 1e-9 <= 3e-9 ties
        w = np.array([1.0, 1.0 - 2e-9, 0.25, 0.25 - 2e-9, 1e-3, 0.0])  # 2e-9 > 1e-9 does not
        rows = [(2.0**40, v), (2.0**-40, v), (1.0, w), (2.0**-40, w), (2.0**40, w), (1.0, 0 * v)]
        flags = _ties(np.array([c * base for c, base in rows]))
        for r, (c, base) in enumerate(rows):
            np.testing.assert_array_equal(flags[r], _ties(c * base))
            np.testing.assert_array_equal(flags[r], _ties(base))
        np.testing.assert_array_equal(flags[0], [False, True, False, True, False])
        np.testing.assert_array_equal(flags[2], [False, False, False, False, False])
        assert flags[5].all()

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
            assert np.linalg.norm(m.entries - rebuilt) <= 1e-8 * np.linalg.norm(m.entries)
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


def _frozen_results():
    """One instance of each frozen result type, from a small study and its first replicate."""
    params = study_params(n_families=6, family_size=3)
    g, measure = params.g, first_difference_measure(params.g.grid)
    part = partition(g, 3, measure)
    return {
        "EigenDecomposition": g.eig,
        "VarianceComponents": anova_estimate(generate_dataset(params)),
        "SimplicityBasis": part.null_basis,
        "StudySummary": run_study(params, 2, measure),
        "SelectionVectors": breeders_response(g, params.e, np.arange(6.0)),
        "VarianceShares": variance_proportions(g, part.combined_basis()),
        "SubspacePartition": part,
    }


FROZEN_RESULTS = _frozen_results()


@pytest.mark.parametrize("name", FROZEN_RESULTS)
def test_frozen_result_arrays_are_read_only_float_copies(name):
    result = FROZEN_RESULTS[name]
    arrays = {f.name: getattr(result, f.name) for f in fields(result)
              if isinstance(getattr(result, f.name), np.ndarray)}
    assert arrays
    for value in arrays.values():
        assert value.dtype == float and not value.flags.writeable
        with pytest.raises(ValueError):
            value[(0,) * value.ndim] = 1.0
    # a list given for an array field is stored as a read-only float array too
    rebuilt = replace(result, **{k: v.astype(int).tolist() for k, v in arrays.items()})
    for key, value in arrays.items():
        stored = getattr(rebuilt, key)
        assert isinstance(stored, np.ndarray) and stored.dtype == float
        assert not stored.flags.writeable
        np.testing.assert_array_equal(stored, value.astype(int))
