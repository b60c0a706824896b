import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from genecon.core import SymMatrix, TraitGrid, clip_negative_eigenvalues, symmetric_eigen
from genecon.errors import DimensionMismatch, InvalidCovariance, InvalidMatrix
from genecon.estimate import _raw_estimates, anova_estimate, load_family_csv, save_family_csv
from genecon.reference import study_params, surrogate_g, temperature_grid
from genecon.simplicity import first_difference_measure, simplicity_basis
from genecon.simulate import (
    SimulationParams,
    _draws,
    _study_mean_squares,
    generate_dataset,
    run_study,
)
from genecon.spaces import canonical_angle_distance, partition

MEASURE = first_difference_measure(temperature_grid())


def small_params(**overrides):
    defaults = dict(n_families=12, family_size=4, seed=99)
    defaults.update(overrides)
    return study_params(**defaults)


def fresh_draw(p, replicate):
    """Replicate r's family means and B from a newly built ``Philox(key=(seed, r))``, and the
    draw that generator makes next."""
    gen = np.random.Generator(np.random.Philox(key=np.array([p.seed, replicate], np.uint64)))
    k, df = p.dim, p.within_df
    means = p.mu + gen.standard_normal((p.n_families, k)) @ p.means_factor.T
    if df >= k:
        a = np.zeros((k, k))
        for i in range(k):
            a[i, :i] = gen.standard_normal(i)
            a[i, i] = gen.chisquare(df - i) ** 0.5
    else:
        a = gen.standard_normal((df, k)).T
    return means, p.within_factor @ a, gen.standard_normal()


class TestGenerator:
    @given(st.lists(st.integers(0, 40), min_size=1, max_size=6),
           st.sampled_from([(12, 4), (3, 2), (2, 3)]), st.sampled_from([0, 99, 2**64 - 1]))
    def test_reset_generator_matches_a_fresh_one(self, replicates, shape, seed):
        # one generator reset per replicate draws, in any replicate order and with
        # repeats, what a generator built for that replicate alone draws; (3, 2) and
        # (2, 3) have df < K
        p = small_params(n_families=shape[0], family_size=shape[1], seed=seed)
        gen, means, b = _draws(p, replicates)
        for r, means_r, b_r in zip(replicates, means, b):
            fresh_means, fresh_b, _ = fresh_draw(p, r)
            np.testing.assert_array_equal(means_r, fresh_means)
            np.testing.assert_array_equal(b_r, fresh_b)
        assert gen.standard_normal() == fresh_draw(p, replicates[-1])[2]


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

    def test_seeds_at_and_above_2_63_differ(self):
        # a Python list holding an int >= 2**63 becomes float64 in numpy, which
        # made 2**63 and 2**63 + 1 draw alike and 2**64 - 1 draw seed 0's data
        seeds = [0, 2**63, 2**63 + 1, 2**64 - 1]
        firsts = {tuple(generate_dataset(small_params(seed=s)).values[0, 0, :].tolist())
                  for s in seeds}
        assert len(firsts) == len(seeds)

    @pytest.mark.parametrize("seed", [-1, 2**64, Fraction(10**400), 1e300])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            small_params(seed=seed)

    @pytest.mark.parametrize("name", ["seed", "n_families", "family_size"])
    def test_count_or_seed_must_be_an_integer(self, name):
        # never truncated: 1.9 or True must not become 1, nor 2.5 reach run_study;
        # every integral real is read alike, numpy's float32 as float64
        for bad in (2.5, 1.9, True, "3", np.float32(2.5), np.float32(np.inf), Fraction(7, 2)):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                small_params(**{name: bad})
        for good in (3.0, np.int64(3), np.float64(3.0), np.float32(3.0), Fraction(6, 2)):
            value = getattr(small_params(**{name: good}), name)
            assert value == 3 and type(value) is int

    def test_family_count_keeps_mean_prefix(self):
        # the family-mean normals come first and row j depends only on j, so a
        # smaller data set's family means are the first of a larger one's; the
        # within-family deviations depend on the whole design and differ
        small = generate_dataset(small_params(n_families=5), replicate=2)
        large = generate_dataset(small_params(n_families=12), replicate=2)
        np.testing.assert_allclose(small.values.mean(axis=1), large.values.mean(axis=1)[:5],
                                   rtol=0.0, atol=1e-14)
        assert not np.allclose(small.values, large.values[:5])

    def test_stream_layout_pinned(self):
        # per replicate: N_f x K family-mean normals, then Bartlett's factor
        # row by row (i normals, then one chi-square), then the frame's
        # normals; changing that layout changes these records and every study
        expected = [
            [1.377015903861659, -0.19200650736585695, 0.2975930746394714,
             -0.5049413108993674, 0.2956497216546313, -0.2359887290970036],
            [-0.08405718244439875, 0.45999943596177933, 0.1068246687950361,
             0.08546836560148455, 0.20946016289135175, -0.34492193766477763],
            [0.5148483539677546, 0.6591215374010014, 0.27733341781722226,
             -0.08882028109255163, -0.0582601865033443, -0.3340902737725975],
            [0.19806378219260223, 0.7105156328779396, -0.24104956348996281,
             -0.45563194254167627, 0.30112216619066123, 0.28176282060281277],
        ]
        values = generate_dataset(small_params(), 3).values[0]
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_negative_replicate_rejected(self):
        with pytest.raises(ValueError, match="replicate"):
            generate_dataset(small_params(), replicate=-1)

    @pytest.mark.parametrize("bad", [2.5, True])
    def test_replicate_must_be_an_integer(self, bad):
        # never truncated: 2.5 must not draw replicate 2, nor True replicate 1
        with pytest.raises(ValueError, match=f"^replicate must be an integer, got {bad}$"):
            generate_dataset(small_params(), replicate=bad)

    def test_integral_float_replicate_is_read_as_an_integer(self):
        p = small_params()
        np.testing.assert_array_equal(generate_dataset(p, 2.0).values,
                                      generate_dataset(p, 2).values)

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

    @pytest.mark.parametrize("e_spectrum, accepted", [
        ([0.1] * 6, True),
        ([0.1] * 5 + [0.0], True),
        ([1.0, 0.5, -0.8, 0.1, 0.1, 0.1], False),
        ([1.0, 0.5, -1e-6, 0.1, 0.1, 0.1], False),
    ], ids=["positive", "singular", "indefinite", "slightly-indefinite"])
    @pytest.mark.parametrize("unit", [1e-12, 1e12])
    def test_acceptance_does_not_depend_on_units(self, e_spectrum, accepted, unit):
        # E, G and sigma2 share one unit, so a change of unit scales every eigenvalue alike
        p = small_params()
        q = np.linalg.qr(np.random.default_rng(5).standard_normal((6, 6)))[0]
        e = (q * e_spectrum) @ q.T

        def build(c):
            g = clip_negative_eigenvalues(SymMatrix(c * p.g.matrix.entries), 0.0, grid=p.g.grid)
            return SimulationParams(mu=p.mu, g=g, e=SymMatrix(c * e), sigma2=c * p.sigma2,
                                    n_families=3, family_size=2, design="half-sib", seed=0)

        for c in (1.0, unit):
            if accepted:
                build(c)
            else:
                with pytest.raises(InvalidCovariance, match="^E is not positive semidefinite"):
                    build(c)

    @pytest.mark.parametrize("sigma2", [True, "0.1", [0.1], None])
    def test_sigma2_must_be_a_number(self, sigma2):
        # read by core.json_number: never stored as a bool, nor failing inside numpy
        with pytest.raises(ValueError, match="^sigma2 must be a number, got "):
            dataclasses.replace(small_params(), sigma2=sigma2)

    @pytest.mark.parametrize("sigma2", [0, np.float32(0.5), np.int64(2)])
    def test_sigma2_is_stored_as_a_float(self, sigma2):
        value = dataclasses.replace(small_params(), sigma2=sigma2).sigma2
        assert value == sigma2 and type(value) is float

    def test_negative_sigma2_rejected(self):
        p = small_params()
        with pytest.raises(InvalidCovariance):
            SimulationParams(
                mu=np.zeros(6), g=p.g, e=p.e, sigma2=-0.1,
                n_families=3, family_size=2, design="half-sib", seed=0,
            )

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf])
    def test_non_finite_sigma2_rejected(self, sigma2):
        p = small_params()
        message = rf"^sigma2 must be finite and nonnegative, got {sigma2}$"
        with pytest.raises(InvalidCovariance, match=message):
            SimulationParams(
                mu=np.zeros(6), g=p.g, e=p.e, sigma2=sigma2,
                n_families=3, family_size=2, design="half-sib", seed=0,
            )

    def test_mu_dimension_checked(self):
        p = small_params()
        with pytest.raises(DimensionMismatch):
            SimulationParams(
                mu=np.zeros(5), g=p.g, e=p.e, sigma2=0.0,
                n_families=3, family_size=2, design="half-sib", seed=0,
            )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_mu_rejected(self, value):
        p = small_params()
        with pytest.raises(ValueError, match=r"^mu must be finite, got \["):
            SimulationParams(
                mu=np.full(6, value), g=p.g, e=p.e, sigma2=0.0,
                n_families=3, family_size=2, design="half-sib", seed=0,
            )

    @pytest.mark.parametrize("bad", ["0.5", True, [0.5], None])
    def test_mu_entries_must_be_numbers(self, bad):
        # never coerced: "0.5" must not become 0.5, nor True 1.0
        p = small_params()
        with pytest.raises(ValueError, match=r"^each entry of mu must be a number, got "):
            dataclasses.replace(p, mu=[0.0] * 5 + [bad])

    @pytest.mark.parametrize("mu", [[0, 1, 2, 3, 4, 5], [0.5, 1, -2, 3.25, 4, 5],
                                    np.arange(6, dtype=np.float32), np.arange(6)])
    def test_mu_of_ints_or_floats_accepted(self, mu):
        p = dataclasses.replace(small_params(), mu=mu)
        assert p.mu.dtype == float
        np.testing.assert_array_equal(p.mu, np.asarray(mu, dtype=float))

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

    @pytest.mark.parametrize("name", ["reps", "null_dim"])
    def test_count_must_be_an_integer(self, name):
        # an integral real is its integer; a bool is not 1, nor 2.5 truncated
        p, counts = small_params(), {"reps": 2, "null_dim": 3}
        for bad in (True, 2.5, "2"):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                run_study(p, measure=MEASURE, **{**counts, name: bad})
        summary = run_study(p, measure=MEASURE, **{**counts, name: float(counts[name])})
        assert getattr(summary, name) == counts[name] and type(getattr(summary, name)) is int
        np.testing.assert_array_equal(summary.simplest_vectors,
                                      run_study(p, measure=MEASURE, **counts).simplest_vectors)

    def test_measure_dimension_checked(self):
        measure = first_difference_measure(TraitGrid(np.arange(5.0)))
        with pytest.raises(DimensionMismatch, match="^measure is 5-dimensional, traits are 6$"):
            run_study(small_params(), reps=1, null_dim=3, measure=measure)

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

    @pytest.mark.parametrize("reps, more", [(1, 5), (3, 7), (6, 8)])
    def test_replicate_prefix(self, reps, more):
        # replicate r draws from its own key, and each stacked call solves each
        # replicate on its own, so a study is the first rows of a larger one
        p = small_params(n_families=30, family_size=6)
        a = run_study(p, reps=reps, null_dim=3, measure=MEASURE)
        b = run_study(p, reps=more, null_dim=3, measure=MEASURE)
        for name in ("min_raw_eigenvalues", "simplest_vectors", "null_pc_vectors",
                     "simplest_responses", "null_pc_responses", "simplest_response_norms",
                     "null_pc_response_norms", "canonical_distances_sq"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name)[:reps])

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
        # each replicate is aligned against the truth, which is left as the
        # generating G's conventions give it, not against replicate 0
        p = small_params(n_families=40, family_size=8)
        summary = run_study(p, reps=8, null_dim=3, measure=MEASURE)
        true_span = p.g.eig.eigenvectors.T[3:]
        np.testing.assert_array_equal(summary.true_null_pcs, true_span)
        np.testing.assert_array_equal(summary.true_simplest,
                                      simplicity_basis(true_span, MEASURE).vectors[0])
        assert np.all(summary.simplest_vectors @ summary.true_simplest >= 0.0)
        assert np.all(np.einsum("rik,ik->ri", summary.null_pc_vectors, true_span) >= 0.0)

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
        # from each replicate's mean squares on, the stacked stages give, bit
        # for bit, what the public single-matrix functions give one replicate
        # at a time; the simplest vector is null vector 0 of the clipped
        # estimate's partition, as clipping keeps the eigenvectors
        p = small_params(n_families=30, family_size=6)
        reps, null_dim = 5, 3
        summary = run_study(p, reps=reps, null_dim=null_dim, measure=MEASURE)
        g_true = p.g.matrix.entries
        true_span = p.g.eig.eigenvectors.T[6 - null_dim:]
        true_simplest = simplicity_basis(true_span, MEASURE).vectors[0]
        rows = []
        for msb, msw in zip(*_study_mean_squares(p, reps)):
            g_raw = SymMatrix(_raw_estimates(msb, msw, p.family_size, p.relatedness)[3])
            eig = symmetric_eigen(g_raw)
            pcs = eig.eigenvectors.T[6 - null_dim:]
            part = partition(clip_negative_eigenvalues(g_raw), 6 - null_dim, MEASURE)
            simplest = part.null_basis.vectors[0]
            rows.append((eig.eigenvalues.min(), simplest, pcs,
                         canonical_angle_distance(pcs, true_span)))
        minima, simplest, pcs, distances = (np.array(c) for c in zip(*rows))
        s0 = np.where(simplest @ true_simplest < 0.0, -1.0, 1.0)
        flips = np.where(np.einsum("rik,ik->ri", pcs, true_span) < 0.0, -1.0, 1.0)
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

    @pytest.mark.parametrize("scale, first", [(1e307, 0), (6e306, 1)])
    def test_overflowing_mean_squares_name_the_replicate(self, scale, first):
        # finite records whose cross products overflow: the stacked check
        # reports the first replicate that fails (at 6e306 replicate 0 passes)
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


def _psd_root(m):
    vals, vecs = np.linalg.eigh(m)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _record_level_mean_squares(p, reps, rng, chunk=50):
    """MSB and MSW of `reps` data sets drawn record by record, with numpy alone."""
    n_f, n, k = p.n_families, p.family_size, p.dim
    c = p.relatedness
    g = p.g.matrix.entries
    family = _psd_root(g / c)
    within = _psd_root((1.0 - 1.0 / c) * g + p.e.entries + p.sigma2 * np.eye(k))
    msb, msw = [], []
    for start in range(0, reps, chunk):
        size = min(chunk, reps - start)
        values = (rng.standard_normal((size, n_f, 1, k)) @ family.T
                  + rng.standard_normal((size, n_f, n, k)) @ within.T)
        means = values.mean(axis=2)
        dev_b = means - means.mean(axis=1, keepdims=True)
        msb.append(n * np.einsum("rfi,rfj->rij", dev_b, dev_b) / (n_f - 1))
        dev_w = values - means[:, :, None, :]
        msw.append(np.einsum("rfmi,rfmj->rij", dev_w, dev_w) / (n_f * (n - 1)))
    return np.concatenate(msb), np.concatenate(msw)


class TestSufficientStatistics:
    @pytest.mark.parametrize("n_families, family_size", [(100, 20), (12, 2)],
                             ids=["reference", "df-near-K"])
    def test_moments_match_a_record_level_draw(self, n_families, family_size):
        # 1,000 replicates from each sampler, at the reference scale and at
        # df = 12, where an error of order K/df in Bartlett's factor shows.
        # The surrogate G is turned by a fixed rotation, so every entry of G
        # and of the within-family covariance is nonzero. For G_hat_raw and
        # for MSW (the Bartlett-drawn part), every entry's mean agrees within
        # 4 pooled standard errors and every entry's SD ratio lies in
        # [0.85, 1.15] (about 4.5 standard errors of a ratio of two sample
        # SDs). The fractions of negative minimum eigenvalues of G_hat_raw
        # agree within 4 binomial standard errors of a difference.
        reps = 1000
        ref = study_params(seed=31)
        q, r = np.linalg.qr(np.random.default_rng(30).standard_normal((6, 6)))
        q = q * np.sign(np.diag(r))
        g = clip_negative_eigenvalues(SymMatrix(q @ ref.g.matrix.entries @ q.T), 0.0,
                                      grid=ref.g.grid)
        p = SimulationParams(mu=ref.mu, g=g, e=ref.e, sigma2=ref.sigma2,
                             n_families=n_families, family_size=family_size,
                             design=ref.design, seed=ref.seed)
        samples = []
        for msb, msw in (_study_mean_squares(p, reps),
                         _record_level_mean_squares(p, reps, np.random.default_rng(32))):
            samples.append((p.relatedness * (msb - msw) / p.family_size, msw))
        for ours, theirs in zip(*samples):
            se = np.sqrt((ours.var(axis=0, ddof=1) + theirs.var(axis=0, ddof=1)) / reps)
            assert np.all(np.abs(ours.mean(axis=0) - theirs.mean(axis=0)) <= 4.0 * se)
            ratio = ours.std(axis=0, ddof=1) / theirs.std(axis=0, ddof=1)
            assert np.all((0.85 <= ratio) & (ratio <= 1.15))
        neg = [np.mean(np.linalg.eigvalsh(g_raw)[:, 0] < 0.0) for g_raw, _ in samples]
        pooled = np.mean(neg)
        assert abs(neg[0] - neg[1]) <= 4.0 * np.sqrt(pooled * (1.0 - pooled) * 2.0 / reps)

    @pytest.mark.parametrize("n_families, family_size", [(30, 6), (3, 2)],
                             ids=["bartlett", "df-below-K"])
    def test_records_reproduce_the_replicate(self, tmp_path, n_families, family_size):
        # the dumped records of replicate r, read back, give the study's raw
        # minimum eigenvalue within 1e-12 of the largest |raw eigenvalue|; at
        # 3 families of 2, df = 3 < K = 6 and the within SSCP has rank 3
        p = small_params(n_families=n_families, family_size=family_size)
        summary = run_study(p, reps=4, null_dim=3, measure=MEASURE)
        for r in range(4):
            path = tmp_path / f"replicate_{r}.csv"
            save_family_csv(generate_dataset(p, r), path)
            components = anova_estimate(load_family_csv(path, p.g.grid, p.design))
            scale = np.abs(components.raw_eigenvalues).max()
            assert abs(components.raw_eigenvalues.min() - summary.min_raw_eigenvalues[r]) \
                <= 1e-12 * scale
            rank = np.linalg.matrix_rank(components.within_ms.entries)
            assert rank == min(p.within_df, 6)
