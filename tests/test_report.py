import json
import math
import os
import re
import stat
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genecon.core import SymMatrix, TraitGrid, clip_negative_eigenvalues
from genecon.errors import DimensionMismatch
from genecon.reference import study_params, surrogate_g, temperature_grid
from genecon.report import (
    FigureSpec,
    _polyline,
    _x_text,
    make_provenance,
    partition_report,
    render_partition_figure,
    render_study_figure,
    report_json_bytes,
    study_report,
    write_json,
    write_svg,
)
from genecon.simplicity import first_difference_measure
from genecon.simulate import run_study
from genecon.spaces import partition

GRID = temperature_grid()
MEASURE = first_difference_measure(GRID)


def svg_elements(svg_text, local_tag):
    root = ET.fromstring(svg_text)
    ns = "{http://www.w3.org/2000/svg}"
    return [el for el in root.iter(f"{ns}{local_tag}")]


def panels(svg_text, kind=None):
    groups = svg_elements(svg_text, "g")
    out = []
    for g in groups:
        classes = g.get("class", "").split()
        if "panel" in classes and (kind is None or kind in classes):
            out.append(g)
    return out


def make_partition(j=4):
    g = surrogate_g()
    return g, partition(g, j, MEASURE)


class TestPartitionFigure:
    def test_panel_structure(self):
        g, part = make_partition(4)
        svg = render_partition_figure(FigureSpec(part, GRID))
        vector_panels = panels(svg, "vector")
        assert len(vector_panels) == 6
        model = [p for p in vector_panels if "model" in p.get("class").split()]
        null = [p for p in vector_panels if "null" in p.get("class").split()]
        assert len(model) == 4 and len(null) == 2
        # exactly one curve per vector panel
        ns = "{http://www.w3.org/2000/svg}"
        for p in vector_panels:
            assert len(p.findall(f"{ns}polyline")) == 1
        assert len(panels(svg, "scatter")) == 1
        assert len(panels(svg, "bars")) == 1
        scatter = panels(svg, "scatter")[0]
        assert len(scatter.findall(f"{ns}circle")) == 6
        bars = panels(svg, "bars")[0]
        rects = [r for r in bars.findall(f"{ns}rect") if "bar" in r.get("class", "")]
        assert len(rects) == 2

    def test_full_model_space_layout(self):
        g, part = make_partition(6)
        svg = render_partition_figure(FigureSpec(part, GRID))
        vector_panels = panels(svg, "vector")
        assert all("model" in p.get("class").split() for p in vector_panels)
        bars = panels(svg, "bars")[0]
        ns = "{http://www.w3.org/2000/svg}"
        null_bar = [r for r in bars.findall(f"{ns}rect") if "null" in r.get("class", "")][0]
        assert float(null_bar.get("height")) == 0.0

    def test_deterministic(self):
        g, part = make_partition(3)
        spec = FigureSpec(part, GRID)
        assert render_partition_figure(spec) == render_partition_figure(spec)

    def test_scatter_matches_report_formatting(self):
        g, part = make_partition(4)
        svg = render_partition_figure(FigureSpec(part, GRID))
        doc = partition_report(g, part, GRID, MEASURE, make_provenance({}))
        ns = "{http://www.w3.org/2000/svg}"
        circles = panels(svg, "scatter")[0].findall(f"{ns}circle")
        for circle, entry in zip(circles, doc["vectors"]):
            assert circle.get("data-proportion") == format(entry["proportion"], ".6g")
            assert circle.get("data-score") == format(entry["simplicity_score"], ".6g")

    def test_grid_mismatch_rejected(self):
        g, part = make_partition(4)
        with pytest.raises(DimensionMismatch):
            FigureSpec(part, TraitGrid(np.array([0.0, 1.0])))

    def test_panel_count_property(self):
        g, part = make_partition(2)
        assert FigureSpec(part, GRID).panel_count == 8

    def test_polyline_matches_per_point_format(self):
        xs = np.array([-0.0, 1e-7, 1e21, np.nan, 16.0, 1 / 3])
        ys = np.array([1e21, np.nan, -0.0, 1e-7, -2.5, 0.1 + 0.2])
        per_point = " ".join(
            f"{format(float(x), '.6g')},{format(float(y), '.6g')}" for x, y in zip(xs, ys)
        )
        assert (_polyline(_x_text(xs), ys.tolist(), "curve")
                == f'<polyline class="curve" points="{per_point}"/>')


class TestStudyFigure:
    def make_summary(self, reps=3):
        return run_study(study_params(n_families=12, family_size=4),
                         reps=reps, null_dim=3, measure=MEASURE)

    def test_overlay_counts(self):
        summary = self.make_summary(reps=3)
        svg = render_study_figure(summary)
        all_panels = panels(svg)
        assert len(all_panels) == 2 * (summary.null_dim + 1)
        ns = "{http://www.w3.org/2000/svg}"
        for panel in all_panels:
            lines = panel.findall(f"{ns}polyline")
            reps = [p for p in lines if "rep" in p.get("class").split()]
            truth = [p for p in lines if "truth" in p.get("class").split()]
            assert len(reps) == 3
            assert len(truth) == 1

    def test_single_replicate(self):
        svg = render_study_figure(self.make_summary(reps=1))
        ns = "{http://www.w3.org/2000/svg}"
        for panel in panels(svg):
            reps = [p for p in panel.findall(f"{ns}polyline")
                    if "rep" in p.get("class").split()]
            assert len(reps) == 1

    def test_deterministic(self):
        summary = self.make_summary(reps=2)
        assert render_study_figure(summary) == render_study_figure(summary)


class TestJsonReports:
    def test_round_trip_bit_exact(self):
        g, part = make_partition(4)
        doc = partition_report(g, part, GRID, MEASURE,
                               make_provenance({"g": "g.json"}, clip_tolerance=0.0))
        data = report_json_bytes(doc)
        assert json.loads(data) == doc
        # numerics preserved exactly
        back = json.loads(data)
        assert back["vectors"][0]["proportion"] == part.proportions[0]
        assert back["eigenvalues"] == [float(x) for x in g.eig.eigenvalues]

    def test_leading_share_of_reference_spectrum(self):
        g, part = make_partition(6)
        doc = partition_report(g, part, GRID, MEASURE, make_provenance({}))
        assert doc["vectors"][0]["proportion"] == pytest.approx(0.595, abs=0.001)

    def test_figure_provenance_metadata(self):
        g, part = make_partition(4)
        prov = make_provenance({"g": "g.json"}, seed=3)
        svg = render_partition_figure(FigureSpec(part, GRID), prov)
        assert '<metadata id="provenance">' in svg
        assert render_partition_figure(FigureSpec(part, GRID), prov) == svg

    def test_clipped_indices_recorded(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        m = SymMatrix((q * np.array([5.0, 2.0, 1.0, 0.5, -0.1, -0.2])) @ q.T)
        g = clip_negative_eigenvalues(m, 0.0, grid=GRID)
        part = partition(g, 4, MEASURE)
        doc = partition_report(g, part, GRID, MEASURE, make_provenance({}))
        assert doc["clipped_indices"] == [4, 5]

    def test_provenance_fields(self):
        prov = make_provenance({"config": "s.json"}, seed=7, measure_kind="d1",
                               clip_tolerance=0.0, relatedness=4.0, rng="philox")
        for key in ("software", "version", "inputs", "seed", "measure",
                    "clip_tolerance", "relatedness_c", "rng", "tolerances",
                    "numpy", "lapack"):
            assert key in prov
        assert prov["seed"] == 7
        assert prov["relatedness_c"] == 4.0
        assert prov["numpy"] == np.__version__
        assert set(prov["lapack"]) == {"name", "version"}

    def test_study_report_shape(self):
        summary = run_study(study_params(n_families=12, family_size=4),
                            reps=2, null_dim=3, measure=MEASURE)
        doc = study_report(summary, make_provenance({}))
        assert doc["reps"] == 2
        assert len(doc["replicates"]["simplest_vectors"]) == 2
        assert len(doc["replicates"]["null_pc_vectors"][0]) == 3
        assert doc["params"]["relatedness_c"] == 4.0
        assert json.loads(report_json_bytes(doc)) == doc


def reference_json_bytes(doc) -> bytes:
    return (json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n").encode("utf-8")


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, 1, 2**64, -(10**30)]),
    st.floats(),
    st.sampled_from([-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf]),
    st.text(),
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(st.floats()),
        st.dictionaries(st.text(), children),
    ),
    max_leaves=40,
)


class TestJsonEmitter:
    @given(JSON_TREES)
    @example({
        "flags": [True, False, 0, 1, 10**40],
        "floats": [-0.0, 1e16, 5e-324, 1.7976931348623157e308, 0.1],
        "text": ["caf\u00e9", "\x00\x1f\t\"\\", "\u2028\U0001f600", ""],
        "empty": [{}, [], [[]], {"": {}}],
        "none": None,
    })
    @example({"floats": [0.5, math.nan]})
    @example({"a": {"b": [1, -math.inf]}})
    @example({"inf": math.inf})
    def test_bytes_match_json_dumps(self, doc):
        # finite floats: the same bytes; NaN or an infinity anywhere: both raise
        try:
            expected = reference_json_bytes(doc)
        except ValueError:
            with pytest.raises(ValueError):
                report_json_bytes(doc)
        else:
            assert report_json_bytes(doc) == expected

    @pytest.mark.parametrize("doc, field", [
        ({"a": {"b": [0.5, math.nan]}}, "a.b"),
        ({"a": [{"c": math.inf}]}, "a.c"),
        ({"norm": -math.inf}, "norm"),
        ({"keys": {math.inf: 0}}, "keys"),
        ([1.0, math.nan], "(top level)"),
    ], ids=["float-list", "list-of-dicts", "scalar", "infinite-key", "top-level"])
    def test_non_finite_names_the_field(self, doc, field):
        with pytest.raises(ValueError):
            reference_json_bytes(doc)
        with pytest.raises(ValueError, match=rf"^report field {re.escape(field)} holds "):
            report_json_bytes(doc)

    @pytest.mark.parametrize("doc", [
        {1: "a", 2.5: "b", -3: "c"},
        {True: 0},
        {None: [1.0]},
        {1e300: 0, 0.5: 1},
        (1.0, [2.0, (3, "x")]),
        [np.float64(0.1), 2.0],
    ], ids=["numeric-keys", "bool-key", "none-key", "float-keys", "tuples", "float-subclass"])
    def test_non_string_keys_and_sequences(self, doc):
        assert report_json_bytes(doc) == reference_json_bytes(doc)

    @pytest.mark.parametrize("doc", [
        np.int64(1),
        {1, 2},
        {"a": [0.5, np.int64(1)]},
        [1.0, 2.0, {3.0}],
        {(1,): 0},
        {"a": 1, 2: 1},
    ], ids=["int64", "set", "nested-int64", "set-after-floats", "tuple-key", "mixed-keys"])
    def test_rejects_what_json_dumps_rejects(self, doc):
        with pytest.raises(TypeError):
            reference_json_bytes(doc)
        with pytest.raises(TypeError):
            report_json_bytes(doc)


class TestAtomicWrites:
    def test_write_json(self, tmp_path):
        path = tmp_path / "out.json"
        write_json({"a": 1.5}, path)
        assert json.loads(path.read_text()) == {"a": 1.5}
        assert list(tmp_path.iterdir()) == [path]  # no leftover temp files

    def test_write_svg(self, tmp_path):
        path = tmp_path / "fig.svg"
        write_svg("<svg/>", path)
        assert path.read_text() == "<svg/>"

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_files_follow_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            write_json({"a": 1.5}, tmp_path / "out.json")
            write_svg("<svg/>", tmp_path / "fig.svg")
        finally:
            os.umask(previous)
        for name in ("out.json", "fig.svg"):
            assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        (target / "inner").mkdir(parents=True)  # a nonempty directory cannot be replaced
        with pytest.raises(OSError):
            write_json({"a": 1}, target)
        assert list(tmp_path.iterdir()) == [target]
