import csv
import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from genecon.core import TraitGrid
from genecon.errors import (
    DimensionMismatch,
    InsufficientData,
    InvalidMatrix,
    UnbalancedDesign,
)
from genecon import estimate
from genecon.estimate import (
    FamilyDataset,
    anova_estimate,
    ingest_gmatrix,
    load_family_csv,
    normalize_design,
    save_family_csv,
)

GRID1 = TraitGrid(np.array([0.0, 1.0]))


def _load_rows(path, grid, design):
    """`load_family_csv` with the bulk parse turned off: the csv module splits every file."""
    with mock.patch.object(estimate, "_bulk_fields", lambda path, k: None):
        return load_family_csv(path, grid, design)


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
    def test_insufficient(self):
        with pytest.raises(InsufficientData):
            FamilyDataset(np.zeros((1, 5, 2)), GRID1, "half-sib")
        with pytest.raises(InsufficientData):
            FamilyDataset(np.zeros((5, 1, 2)), GRID1, "half-sib")

    def test_trait_count_checked(self):
        with pytest.raises(DimensionMismatch):
            FamilyDataset(np.zeros((2, 2, 3)), GRID1, "half-sib")

    def test_records_must_form_a_three_dimensional_array(self):
        with pytest.raises(DimensionMismatch,
                           match=r"^values must have shape \(\*, \*, 2\), got \(4, 2\)$"):
            FamilyDataset(np.zeros((4, 2)), GRID1, "half-sib")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_records_rejected(self, bad):
        values = np.zeros((2, 2, 2))
        values[1, 0, 1] = bad
        with pytest.raises(InvalidMatrix, match="^phenotype records must be finite$"):
            FamilyDataset(values, GRID1, "half-sib")

    def test_design_normalization(self):
        assert normalize_design("halfsib") == "half-sib"
        assert normalize_design("FULL-SIB") == "full-sib"
        for tag in ("cousins", None, 4):  # a non-string is an unknown design, not a crash
            with pytest.raises(ValueError, match=rf"^unknown family design {tag!r}; expected "):
                normalize_design(tag)


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
        np.testing.assert_array_equal(g.eigenvalues[4:], [0.0, 0.0])
        np.testing.assert_allclose(g.eigenvalues[:4], [183.7, 9.0, 3.0, 1.0], rtol=1e-12)

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
        message = rf"^{re.escape(str(path))}: family 'F2' has 3 members, family 'F1' has 2$"
        with pytest.raises(UnbalancedDesign, match=message):
            load_family_csv(path, GRID1, "half-sib")

    def test_too_few_families_names_the_path(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("family,individual,t1,t2\nF1,I1,0,1\nF1,I2,1,2\n")
        message = rf"^{re.escape(str(path))}: need at least 2 families of 2 members, got 1 x 2$"
        for load in (load_family_csv, _load_rows):
            with pytest.raises(InsufficientData, match=message):
                load(path, GRID1, "half-sib")

    def test_bad_float_rejected(self, tmp_path):
        path = tmp_path / "badval.csv"
        path.write_text("family,individual,t1,t2\nF1,I1,0,x\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n")
        with pytest.raises(InvalidMatrix):
            load_family_csv(path, GRID1, "half-sib")

    @pytest.mark.parametrize("value", ["nan", "-inf", "Infinity", "1e999"])
    def test_non_finite_names_line_and_column(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"family,individual,t1,t2\nF1,I1,0,1\nF1,I2,1,{value}\n")
        with pytest.raises(InvalidMatrix, match=rf"^{path}:3: t2 must be finite, got '{value}'$"):
            load_family_csv(path, GRID1, "half-sib")

    @pytest.mark.parametrize("records, line", [
        ('F1,I1,0,1\n"F\n1",I1,0,1\nF2,I1,0,x\n', 5),
        ('F1,I1,0,1\n"F\n1",I1,0,x\nF2,I1,0,1\n', 3),
    ], ids=["after-the-record", "in-the-record"])
    def test_error_names_the_line_a_record_starts_on(self, tmp_path, records, line):
        path = tmp_path / "ml.csv"
        path.write_text("family,individual,t1,t2\n" + records)
        message = rf"^{path}:{line}: could not convert string to float: 'x'$"
        with pytest.raises(InvalidMatrix, match=message):
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

    @pytest.mark.parametrize("records, message", [
        ("F1,I1,0,1\nF1,I1,1,2\nF2,I1,0,1\nF2,I2,1,x\n",
         ":5: could not convert string to float: 'x'"),
        ("F1,I1,0,1\nF1,I1,1,2\nF2,I1,0,nan\nF2,I2,1,2\n",
         ":3: duplicate record for family 'F1', individual 'I1'"),
    ], ids=["field-error-first", "earliest-record-error"])
    def test_error_precedence(self, tmp_path, records, message):
        # every field is read before any record is checked; records are checked in file order
        path = tmp_path / "faults.csv"
        path.write_text("family,individual,t1,t2\n" + records)
        for load in (load_family_csv, _load_rows):
            with pytest.raises(InvalidMatrix, match=f"^{re.escape(str(path) + message)}$"):
                load(path, GRID1, "half-sib")

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("family,individual,t1,t2\n")
        with pytest.raises(InsufficientData):
            load_family_csv(path, GRID1, "half-sib")


CSV_HEADER = "family,individual,t1,t2"
LONG_FIELD = "1" * (csv.field_size_limit() + 1)
# fields the csv module and float() read one way and np.loadtxt another, or not at all
CSV_HAZARDS = ['"F1"', '"F,1"', '"0"', "F1\x0b", "\x0c1", "\x1c1", "1\x1f", "F\u20281", "1\u2028",
               "#1", "1#", "1_0", "\u0661", "\xa01", "F1\xa0", " 1 ", "\t", "", "nan", "inf",
               "-1e999", "F1\x00", "1\x00", "\ufeff1", "0x1p3", "1e", "I1,0", "F1,I1"]
CSV_ENDINGS = ["\n", "\r\n", "\r", "\n\n", "\n \n", "\r\n\r\n", "\n\t\n", ""]


@st.composite
def family_csv_bytes(draw):
    """A two-trait family CSV, mostly well formed, with a few hazards planted."""
    n_f, n = draw(st.sampled_from([1, 2, 2, 3])), draw(st.sampled_from([1, 2, 2, 3]))
    keys = [(f"F{j + 1}", f"I{i + 1}") for j in range(n_f) for i in range(n)]
    keys = draw(st.permutations(keys))
    # dropping a record unbalances its family; repeating one duplicates it
    keys = keys[draw(st.integers(0, 1)):] + keys[:draw(st.integers(0, 1))]
    number = st.builds(lambda x, fmt: fmt.format(x),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from(["{!r}", "{:.3g}", "{:+e}", " {} "]))
    rows = [[fam, ind, draw(number), draw(number)] for fam, ind in keys]
    hazards = st.sampled_from([0, 0, 0, 1, 2])
    for _ in range(draw(hazards) if rows else 0):
        row = draw(st.sampled_from(rows))
        col = draw(st.integers(0, len(row)))  # len(row) appends an extra field
        field = row[col] if col < len(row) else ""
        row[col:col + 1] = [draw(st.sampled_from(
            CSV_HAZARDS + [f'"{field}"', f"\xa0{field}", f"{field}\x0b", f"\x1c{field}"]))]
    header = draw(st.sampled_from([CSV_HEADER] * 6 + [" family , individual,t1 ,t2",
                                                      "family,individual,t1", CSV_HEADER + ","]))
    lines = [header] + [",".join(row) for row in rows]
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    endings = [ending] * len(lines)
    for _ in range(draw(hazards)):
        endings[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(CSV_ENDINGS))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    return (bom + "".join(map(str.__add__, lines, endings))).encode("utf-8")


def _no_row_reader(path, k):
    raise AssertionError("fell back to the row reader")


def _outcome(load, path):
    try:
        values = load(path, GRID1, "half-sib").values
    except Exception as exc:  # the two readers must fail alike, whatever the failure
        return type(exc), str(exc)
    return values.shape, values.tobytes()


class TestBulkParse:
    """`load_family_csv` splits fields in bulk and hands what it cannot vouch for to
    the row reader; the two must give the same records or the same error."""

    @settings(max_examples=300)
    @given(raw=family_csv_bytes())
    @example(raw=b'family,individual,t1,t2\n"F1",I1,0,1\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n')
    @example(raw=b'family,individual,t1,t2\n"F,1",I1,0,1\n"F,1",I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n')
    # split at its quoted commas, each row reads as two ids and two traits
    @example(raw=b'family,individual,t1,t2\n"F,1",0,1\n"F,2",1,2\n"G,1",0,1\n"G,2",1,2\n')
    @example(raw=b"family,individual,t1,t2\nF1,I1,0,1\rF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n")
    @example(raw=b"family,individual,t1,t2\r\nF1,I1,0,1\r\nF1,I2,1,2\r\nF2,I1,0,1\r\n"
                 b"F2,I2,1,2\r\n")
    @example(raw=b"family,individual,t1,t2\nF1\x0b,I1,0,1\nF1\x0b,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n")
    @example(raw=b"family,individual,t1,t2\nF1,I1,\x0c0,1\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n")
    @example(raw=b"family,individual,t1,t2\nF1,I1,0,\x1c1\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n")
    @example(raw="family,individual,t1,t2\nF\u20281,I1,0,1\nF\u20281,I2,1,2\nF2,I1,0,1\n"
                 "F2,I2,1,2\n".encode())
    # str.splitlines would read two good rows where csv reads one of seven fields
    @example(raw="family,individual,t1,t2\nF1,I1,0,1\u2028F1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n"
                 .encode())
    @example(raw=b"family,individual,t1,t2\n\nF1,I1,0,1\n\n\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n\n")
    @example(raw=b"family,individual,t1,t2\nF1,I1,0,1\n \nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n")
    @example(raw=b"\nfamily,individual,t1,t2\nF1,I1,0,1\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n")
    @example(raw=b"family,individual,t1,t2\nF1,I1,0,1,\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n")
    @example(raw=b"family,individual,t1,t2\nF1,I1,0,1,5\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n")
    # one field short and one extra leave the total comma count right
    @example(raw=b"family,individual,t1,t2\nF1,I1,0\nF1,I2,1,2,3\nF2,I1,0,1\nF2,I2,1,2\n")
    @example(raw=b"family,individual,t1,t2\nF#1,I1,0,1\nF#1,I2,1,2\nF2,I1,0,#1\nF2,I2,1,2\n")
    @example(raw=b"family,individual,t1,t2\nF1,I1,1_0,1\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n")
    @example(raw="family,individual,t1,t2\nF1,I1,\u0661,1\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n"
                 .encode())
    @example(raw="family,individual,t1,t2\nF1,I1,\xa00,1\xa0\nF1\xa0,I2,1,2\nF2,I1,0,1\n"
                 "F2,I2,1,2\n".encode())
    @example(raw=b"family,individual,t1,t2\nF2,I1,0,1\nF1,I1,0,1\nF2,I2,1,2\nF1,I2,1,2\n")
    @example(raw=b"family,individual,t1,t2\nF1,I1,0,1\nF1,I1,1,2\nF2,I1,0,1\nF2,I2,1,2\n")
    @example(raw=b"family,individual,t1,t2\nF1,I1,0,1\nF1,I2,1,2\nF2,I1,0,1\n")
    @example(raw=b"\xef\xbb\xbffamily,individual,t1,t2\nF1,I1,0,1\nF1,I2,1,2\nF2,I1,0,1\n"
                 b"F2,I2,1,2\n")
    @example(raw=b"family,individual,t1,t2\nF1,I1,0,1\nF1,I2,1,2\nF2,I1,0,1\nF2,I"
                 + LONG_FIELD.encode() + b",1,2\n")
    @example(raw=b"family,individual,t1,t2\nF1,I1,0,1\nF1,I2,1,nan\nF2,I1,0,1\nF2,I2,1,2\n")
    # the error quotes the field as written, padding included
    @example(raw=b"family,individual,t1,t2\nF1,I1,0,1\nF1,I2,1, nan \nF2,I1,0,1\nF2,I2,1,2\n")
    @example(raw=b"family,individual,t1,t2\nF1\x00,I1,0,1\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n")
    @example(raw=b"family,individual,t1,t2\nF1,I1,0,1\nF1,I\xff,1,2\nF2,I1,0,1\nF2,I2,1,2\n")
    def test_matches_row_reader(self, tmp_path_factory, raw):
        path = tmp_path_factory.mktemp("bulk") / "families.csv"
        path.write_bytes(raw)
        assert _outcome(load_family_csv, path) == _outcome(_load_rows, path)

    @pytest.mark.parametrize("text", [
        CSV_HEADER + "\nF1,I1,0,1\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2",
        CSV_HEADER + "\r\nF1,I1,0,1\r\nF1,I2,1,2\r\n\r\nF2,I1,0,1\r\nF2,I2,1,2\r\n\r\n",
        "\ufeff" + CSV_HEADER + "\n\nF1,I1,0,1\n\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n\n\n",
        " family , individual,t1 ,t2\nF1,I1, 0 ,\xa01\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\n",
        CSV_HEADER + "\nF1,I1,0,1\nF2,I1,0,1\nF1,I2,1,2\nF2,I2,1,2\n",
    ], ids=["no-final-newline", "crlf-blank-lines", "bom-blank-lines", "padded", "interleaved"])
    def test_clean_files_stay_bulk(self, tmp_path, monkeypatch, text):
        path = tmp_path / "families.csv"
        path.write_bytes(text.encode())

        monkeypatch.setattr(estimate, "_row_fields", _no_row_reader)
        np.testing.assert_array_equal(load_family_csv(path, GRID1, "half-sib").values,
                                      [[[0, 1], [1, 2]], [[0, 1], [1, 2]]])

    @pytest.mark.parametrize("records, error, message", [
        ("F1,I1,0,1\nF1,I2,1,2\nF2,I1,0,1\nF2,I1,1,2\n", InvalidMatrix,
         ":5: duplicate record for family 'F2', individual 'I1'"),
        ("F1,I1,0,1\nF1,I2,1, -inf\nF2,I1,0,1\nF2,I2,1,2\n", InvalidMatrix,
         ":3: t2 must be finite, got ' -inf'"),
        ("F1,I1,0,1\nF1,I2,1,2\nF2,I1,0,1\nF2,I2,1,2\nF2,I3,2,3\n", UnbalancedDesign,
         ": family 'F2' has 3 members, family 'F1' has 2"),
        ("F1,I1,0,1\nF1,I2,1,2\n\n", InsufficientData,
         ": need at least 2 families of 2 members, got 1 x 2"),
    ], ids=["duplicate", "non-finite", "unbalanced", "one-family"])
    def test_record_errors_stay_bulk(self, tmp_path, monkeypatch, records, error, message):
        # a file the bulk parse can split is worded from that parse, not read again
        path = tmp_path / "families.csv"
        path.write_text(CSV_HEADER + "\n" + records)
        monkeypatch.setattr(estimate, "_row_fields", _no_row_reader)
        with pytest.raises(error, match=f"^{re.escape(str(path) + message)}$"):
            load_family_csv(path, GRID1, "half-sib")


def _csv_text(records) -> bytes:
    """A family CSV of ``(family, individual, traits)`` records, quoted as the csv module does."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_HEADER.split(","))
    writer.writerows([fam, ind, *map(repr, traits)] for fam, ind, traits in records)
    return out.getvalue().encode()


@st.composite
def family_records(draw):
    """The records of a balanced design, 2-4 families of 2-4 members, in file order."""
    n_f, n = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    traits = draw(st.lists(st.floats(-1e3, 1e3), min_size=2 * n_f * n, max_size=2 * n_f * n))
    return [(f"F{j + 1}", f"I{i + 1}", traits[2 * (j * n + i):2 * (j * n + i) + 2])
            for j in range(n_f) for i in range(n)]


class TestCsvInvariance:
    """The estimate does not depend on the order or the labels of the records."""

    @settings(max_examples=60)
    @given(records=family_records(), order=st.randoms(use_true_random=False))
    def test_record_order_changes_estimate_only_at_roundoff(self, tmp_path_factory, records,
                                                            order):
        # any order of the records: the families' order and each family's member order
        shuffled = order.sample(records, len(records))
        folder = tmp_path_factory.mktemp("order")
        estimates = []
        for name, rows in (("file.csv", records), ("shuffled.csv", shuffled)):
            path = folder / name
            path.write_bytes(_csv_text(rows))
            bulk, row_only = (load(path, GRID1, "half-sib").values
                              for load in (load_family_csv, _load_rows))
            assert bulk.tobytes() == row_only.tobytes()
            estimates.append(anova_estimate(FamilyDataset(bulk, GRID1, "half-sib")))
        a, b = estimates
        # reordered sums differ by a few ulps of the largest mean square; G_hat_raw is
        # c/n <= 2 times a difference of two mean squares
        scale = max(np.abs(a.between_ms.entries).max(), np.abs(a.within_ms.entries).max(), 1e-300)
        for m in ("between_ms", "within_ms"):
            assert np.abs(getattr(a, m).entries - getattr(b, m).entries).max() <= 1e-12 * scale
        assert np.abs(a.g_hat_raw.entries - b.g_hat_raw.entries).max() <= 4e-12 * scale

    @settings(max_examples=60)
    @given(records=family_records(),
           labels=st.lists(st.text(st.characters(exclude_categories=["Cs"])), min_size=8,
                           max_size=8, unique=True))
    def test_relabeling_changes_nothing(self, tmp_path_factory, records, labels):
        # new family and individual names, each record kept where it is
        families = dict(zip(dict.fromkeys(fam for fam, _, _ in records), labels[:4]))
        members = dict(zip(dict.fromkeys(ind for _, ind, _ in records), labels[4:]))
        renamed = [(families[fam], members[ind], traits) for fam, ind, traits in records]
        folder = tmp_path_factory.mktemp("labels")
        (folder / "file.csv").write_bytes(_csv_text(records))
        (folder / "renamed.csv").write_bytes(_csv_text(renamed))
        original = load_family_csv(folder / "file.csv", GRID1, "half-sib").values
        for load in (load_family_csv, _load_rows):
            values = load(folder / "renamed.csv", GRID1, "half-sib").values
            assert values.shape == original.shape and values.tobytes() == original.tobytes()
