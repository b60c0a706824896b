"""One scale rule: every verdict on G, and every figure, is the same in any unit.

Scaling by a power of two is exact in floating point, so each comparison here
is bitwise: a partition, an input check or a study of c * G must match that of
G exactly, with eigenvalues, responses and norms exactly c times G's. A
partition figure is the same in any unit of G and of the grid, apart from the
raw scores it records.
"""

import dataclasses
import re

import numpy as np
import pytest

from genecon.core import SymMatrix, TraitGrid, clip_negative_eigenvalues
from genecon.errors import InvalidMatrix, RankDeficientSubspace
from genecon.reference import study_params, temperature_grid
from genecon.report import render_partition_figure, render_study_figure
from genecon.simplicity import first_difference_measure, measure_from_kind, simplicity_basis
from genecon.simulate import run_study
from genecon.spaces import sweep_partitions

GRID = temperature_grid()
SCALES = [2.0**-40, 2.0**40]


def random_orthogonal(k, rng):
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def random_g_entries(seed):
    """A 6 x 6 PSD matrix in a random basis; even seeds draw exact eigenvalue ties and zeros."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        eigenvalues = rng.uniform(0.0, 2.0, size=6)
    else:
        eigenvalues = rng.choice([0.0, 0.25, 1.0, 3.0], size=6)
    q = random_orthogonal(6, rng)
    return (q * eigenvalues) @ q.T


def gmatrix(entries):
    return clip_negative_eigenvalues(SymMatrix(entries), 0.0, grid=GRID)


@pytest.mark.parametrize("c", SCALES)
def test_partitions_match_at_any_scale(c):
    for seed in range(24):
        entries = random_g_entries(seed)
        g, g_scaled = gmatrix(entries), gmatrix(c * entries)
        np.testing.assert_array_equal(g_scaled.eigenvalues, c * g.eigenvalues)
        for kind in ("d1", "d2", "sparse"):
            measure = measure_from_kind(kind, GRID)
            for a, b in zip(sweep_partitions(g, measure), sweep_partitions(g_scaled, measure)):
                np.testing.assert_array_equal(b.combined_basis(), a.combined_basis())
                np.testing.assert_array_equal(b.scores, a.scores)
                np.testing.assert_array_equal(b.proportions, a.proportions)
                np.testing.assert_array_equal(b.model_eigenvalues, c * a.model_eigenvalues)
                np.testing.assert_array_equal(b.response_norms, c * a.response_norms)
                assert b.model_variance_fraction == a.model_variance_fraction
                assert b.null_variance_fraction == a.null_variance_fraction
                assert b.boundary_tie == a.boundary_tie, (seed, kind, b.j)
                assert b.null_basis.degenerate == a.null_basis.degenerate, (seed, kind, b.j)


def figure_inputs():
    """(entries, grid points) of a random PSD G for each K in 3..10, twice.

    The second G of each K draws its spectrum from a few values with 0, so it
    has exact eigenvalue ties and zeros; the grid is unevenly spaced.
    """
    rng = np.random.default_rng(24)
    for k in range(3, 11):
        for tied in (False, True):
            eigenvalues = rng.choice([0.0, 0.5, 2.0], size=k) if tied else rng.uniform(0, 3, k)
            q = random_orthogonal(k, rng)
            yield (q * eigenvalues) @ q.T, np.cumsum(rng.uniform(0.5, 2.0, k))


def figures(entries, points, kind):
    """The partition figure at every J of G = ``entries`` on the grid ``points``."""
    grid = TraitGrid(points)
    g = clip_negative_eigenvalues(SymMatrix(entries), 0.0, grid=grid)
    return [render_partition_figure(part)
            for part in sweep_partitions(g, measure_from_kind(kind, grid))]


def without_data(svg):
    return re.sub(r' data-[a-z]+="[^"]*"', "", svg)


@pytest.mark.parametrize("unit", [2.0**-3, 2.0**3])
@pytest.mark.parametrize("kind", ["d1", "d2", "sparse"])
def test_partition_figures_match_in_any_grid_unit(unit, kind):
    # the scatter's score axis spans the largest score, so its points keep their place
    # when d2's scores scale as unit**-3; data-score records the raw score
    for entries, points in figure_inputs():
        for a, b in zip(figures(entries, points, kind), figures(entries, unit * points, kind)):
            if kind == "d2":
                assert without_data(b) == without_data(a)
            else:
                assert b == a


@pytest.mark.parametrize("c", [2.0**-20, 2.0**20])
@pytest.mark.parametrize("kind", ["d1", "d2", "sparse"])
def test_partition_figures_match_at_any_scale_of_g(c, kind):
    for entries, points in figure_inputs():
        assert figures(c * entries, points, kind) == figures(entries, points, kind)


@pytest.mark.parametrize("c", SCALES)
@pytest.mark.parametrize("asymmetry", [0.0, 1e-12, 5e-11, 2e-10, 1e-8])
def test_symmetry_verdict_at_any_scale(c, asymmetry):
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((4, 4))
        m = a + a.T
        m[0, 1] += asymmetry * np.abs(m).max()
        try:
            expected = SymMatrix(m).entries
        except InvalidMatrix:
            with pytest.raises(InvalidMatrix, match="^matrix is asymmetric"):
                SymMatrix(c * m)
        else:
            np.testing.assert_array_equal(SymMatrix(c * m).entries, c * expected)


@pytest.mark.parametrize("c", SCALES + [2.0**-60])
@pytest.mark.parametrize("kind", ["d1", "d2", "sparse"])
def test_simplicity_basis_at_any_scale(c, kind):
    rng = np.random.default_rng(11)
    measure = measure_from_kind(kind, GRID)
    for n_rows in (1, 3, 5):
        rows = rng.standard_normal((n_rows, 6))
        a, b = simplicity_basis(rows, measure), simplicity_basis(c * rows, measure)
        np.testing.assert_array_equal(b.vectors, a.vectors)
        np.testing.assert_array_equal(b.scores, a.scores)
        assert b.degenerate == a.degenerate
    dependent = np.vstack([rows[:2], rows[0] - 2.0 * rows[1]])
    for m in (dependent, c * dependent):
        with pytest.raises(RankDeficientSubspace, match="^vector 2 lies in the span"):
            simplicity_basis(m, measure)


@pytest.mark.parametrize("c", [4.0**-25, 4.0**25])
def test_study_matches_at_any_scale(c):
    # G, E and sigma2 share one unit; each factor then scales by sqrt(c), exactly
    params = study_params(n_families=12, family_size=4)
    scaled = dataclasses.replace(
        params, g=clip_negative_eigenvalues(SymMatrix(c * params.g.matrix.entries), 0.0,
                                            grid=params.g.grid),
        e=SymMatrix(c * params.e.entries), sigma2=c * params.sigma2)
    measure = first_difference_measure(GRID)
    a = run_study(params, reps=5, null_dim=3, measure=measure)
    b = run_study(scaled, reps=5, null_dim=3, measure=measure)
    np.testing.assert_array_equal(b.simplest_vectors, a.simplest_vectors)
    np.testing.assert_array_equal(b.null_pc_vectors, a.null_pc_vectors)
    np.testing.assert_array_equal(b.canonical_distances_sq, a.canonical_distances_sq)
    np.testing.assert_array_equal(b.simplest_responses, c * a.simplest_responses)
    np.testing.assert_array_equal(b.min_raw_eigenvalues, c * a.min_raw_eigenvalues)
    assert render_study_figure(b) == render_study_figure(a)
