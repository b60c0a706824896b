import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genecon.core import TraitGrid
from genecon.errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidMatrix,
    UnbalancedDesign,
)
from genecon.estimate import (
    FamilyDataset,
    anova_estimate,
    ingest_gmatrix,
    load_family_csv,
    normalize_design,
    save_family_csv,
)

GRID1 = TraitGrid(np.array([0.0, 1.0]))


class TestAnovaHandExample:
    def test_k1_equivalent(self):
        # scalar example {1,-1} and {3,5} embedded as two identical traits;
        # every trait-wise entry then equals the scalar hand computation
        fam = np.array([[[1.0, 1.0], [-1.0, -1.0]], [[3.0, 3.0], [5.0, 5.0]]])
        data = FamilyDataset(fam, GRID1, "half-sib")
        vc = anova_estimate(data)
        np.testing.assert_array_equal(vc.between_ms.entries, np.full((2, 2), 16.0))
        np.testing.assert_array_equal(vc.within_ms.entries, np.full((2, 2), 2.0))
        np.testing.assert_array_equal(vc.family_component.entries, np.full((2, 2), 7.0))
        np.testing.assert_array_equal(vc.g_hat_raw.entries, np.full((2, 2), 28.0))
        assert vc.relatedness == 4.0

    def test_full_sib_coefficient(self):
        fam = np.array([[[1.0, 1.0], [-1.0, -1.0]], [[3.0, 3.0], [5.0, 5.0]]])
        vc = anova_estimate(FamilyDataset(fam, GRID1, "full-sib"))
        np.testing.assert_array_equal(vc.g_hat_raw.entries, np.full((2, 2), 14.0))
        assert vc.relatedness == 2.0

    def test_no_variation(self):
        fam = np.full((3, 4, 2), 7.5)
        vc = anova_estimate(FamilyDataset(fam, GRID1, "half-sib"))
        np.testing.assert_array_equal(vc.between_ms.entries, np.zeros((2, 2)))
        np.testing.assert_array_equal(vc.within_ms.entries, np.zeros((2, 2)))
        np.testing.assert_array_equal(vc.g_hat.matrix.entries, np.zeros((2, 2)))


class TestDatasetValidation:
    def test_unbalanced(self):
        families = [[[1.0, 2.0]] * 3, [[1.0, 2.0]] * 2]
        with pytest.raises(UnbalancedDesign):
            FamilyDataset.from_records(families, GRID1, "half-sib")

    def test_insufficient(self):
        with pytest.raises(InsufficientData):
            FamilyDataset(np.zeros((1, 5, 2)), GRID1, "half-sib")
        with pytest.raises(InsufficientData):
            FamilyDataset(np.zeros((5, 1, 2)), GRID1, "half-sib")

    def test_trait_count_checked(self):
        with pytest.raises(DimensionMismatch):
            FamilyDataset(np.zeros((2, 2, 3)), GRID1, "half-sib")

    def test_design_normalization(self):
        assert normalize_design("halfsib") == "half-sib"
        assert normalize_design("FULL-SIB") == "full-sib"
        with pytest.raises(ValueError):
            normalize_design("cousins")


class TestLoopOracle:
    def test_mean_squares_match_explicit_sums(self):
        # independent computation with explicit per-family loops
        rng = np.random.default_rng(23)
        values = rng.standard_normal((7, 4, 2)) + np.array([1.0, -2.0])
        vc = anova_estimate(FamilyDataset(values, GRID1, "half-sib"))

        n_f, n, k = values.shape
        grand = values.reshape(-1, k).mean(axis=0)
        msb = np.zeros((k, k))
        msw = np.zeros((k, k))
        for j in range(n_f):
            fam_mean = values[j].mean(axis=0)
            d = fam_mean - grand
            msb += n * np.outer(d, d)
            for i in range(n):
                w = values[j, i] - fam_mean
                msw += np.outer(w, w)
        msb /= n_f - 1
        msw /= n_f * (n - 1)

        np.testing.assert_allclose(vc.between_ms.entries, msb, atol=1e-12)
        np.testing.assert_allclose(vc.within_ms.entries, msw, atol=1e-12)
        np.testing.assert_allclose(
            vc.g_hat_raw.entries, 4.0 * (msb - msw) / n, atol=1e-12
        )


class TestMeanInvariance:
    @given(st.floats(-50, 50), st.floats(-50, 50))
    @settings(max_examples=25)
    def test_shift_leaves_estimate(self, mu0, mu1):
        rng = np.random.default_rng(17)
        base = rng.standard_normal((6, 5, 2))
        shift = np.array([mu0, mu1])
        a = anova_estimate(FamilyDataset(base, GRID1, "half-sib"))
        b = anova_estimate(FamilyDataset(base + shift, GRID1, "half-sib"))
        assert np.abs(a.g_hat_raw.entries - b.g_hat_raw.entries).max() <= 1e-10


class TestIngest:
    def test_identity_passthrough(self, tmp_path):
        payload = {"dim": 3, "entries": list(np.eye(3).ravel())}
        g = ingest_gmatrix(payload)
        np.testing.assert_array_equal(g.matrix.entries, np.eye(3))
        assert g.clipped_indices == ()

    def test_negative_eigenvalues_clipped(self):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        m = (q * np.array([183.7, 9.0, 3.0, 1.0, -0.21, -0.55])) @ q.T
        g = ingest_gmatrix({"dim": 6, "entries": list(m.ravel())})
        assert g.clipped_indices == (4, 5)
        assert g.rank == 4

    def test_path_input(self, tmp_path):
        import json

        path = tmp_path / "g.json"
        path.write_text(json.dumps({"dim": 2, "entries": [1.0, 0.0, 0.0, 2.0]}))
        g = ingest_gmatrix(path)
        np.testing.assert_array_equal(g.eigenvalues, [2.0, 1.0])

    def test_grid_mismatch(self):
        payload = {"dim": 3, "entries": list(np.eye(3).ravel())}
        with pytest.raises(DimensionMismatch):
            ingest_gmatrix(payload, grid=GRID1)

    def test_asymmetric_rejected(self):
        payload = {"dim": 2, "entries": [1.0, 0.5, 0.0, 1.0]}
        with pytest.raises(InvalidMatrix):
            ingest_gmatrix(payload)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        data = FamilyDataset(rng.standard_normal((4, 3, 2)), GRID1, "half-sib")
        path = tmp_path / "families.csv"
        save_family_csv(data, path)
        back = load_family_csv(path, GRID1, "half-sib")
        np.testing.assert_array_equal(back.values, data.values)
        assert back.design == "half-sib"

    def test_byte_order_mark_ignored(self, tmp_path):
        # spreadsheet programs start UTF-8 CSV files with a byte-order mark
        rng = np.random.default_rng(6)
        data = FamilyDataset(rng.standard_normal((4, 3, 2)), GRID1, "half-sib")
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        save_family_csv(data, plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        back = load_family_csv(marked, GRID1, "half-sib")
        np.testing.assert_array_equal(back.values, load_family_csv(plain, GRID1, "half-sib").values)
        np.testing.assert_array_equal(back.values, data.values)

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("family,ind,t1,t2\nF1,I1,0,1\n")
        with pytest.raises(InvalidMatrix):
            load_family_csv(path, GRID1, "half-sib")

    def test_unbalanced_rejected(self, tmp_path):
        path = tmp_path / "unbalanced.csv"
        path.write_text(
            "family,individual,t1,t2\n"
            "F1,I1,0,1\nF1,I2,1,2\n"
            "F2,I1,0,1\nF2,I2,1,2\nF2,I3,2,3\n"
        )
        with pytest.raises(UnbalancedDesign):
            load_family_csv(path, GRID1, "half-sib")

    def test_bad_float_rejected(self, tmp_path):
        path = tmp_path / "badval.csv"
        path.write_text("family,individual,t1,t2\nF1,I1,0,x\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n")
        with pytest.raises(InvalidMatrix):
            load_family_csv(path, GRID1, "half-sib")

    def test_duplicate_record_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "family,individual,t1,t2\n"
            "F1,I1,0,1\nF1,I2,1,2\n"
            "F2,I1,0,1\nF2,I1,1,2\n"
        )
        with pytest.raises(InvalidMatrix, match=r"dup\.csv:5: duplicate"):
            load_family_csv(path, GRID1, "half-sib")

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("family,individual,t1,t2\n")
        with pytest.raises(InsufficientData):
            load_family_csv(path, GRID1, "half-sib")
