import dataclasses
import errno
import json
import math
import os
import re
import stat
import xml.etree.ElementTree as ET
from xml.sax import saxutils

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genecon import core
from genecon.core import EigenDecomposition, GMatrix, SymMatrix, clip_negative_eigenvalues
from genecon.reference import study_params, surrogate_g, temperature_grid
from genecon.report import (
    _bits_text,
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
from genecon.simplicity import custom_measure, first_difference_measure, sparseness_measure
from genecon.simulate import SimulationParams, run_study
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


# finite floats, with the signed zero, the smallest subnormal, and the exponent and sign
# boundaries of repr's fixed and scientific forms drawn often
TABLE_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e-5, 1e300, -1e300])


@st.composite
def float_tables(draw):
    """A rectangular nested list of depth 1 to 3 whose leaves are exactly ``float``."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    size = math.prod(shape)
    return np.array(draw(st.lists(TABLE_FLOATS, min_size=size, max_size=size))).reshape(
        shape).tolist()


@st.composite
def near_tables(draw):
    """A float table with one innermost list changed: ragged, emptied, or one leaf that
    is an int, a bool or a float subclass."""
    table = row = draw(float_tables())
    while isinstance(row[0], list):
        row = row[draw(st.integers(0, len(row) - 1))]
    i = draw(st.integers(0, len(row) - 1))
    change = draw(st.sampled_from(["longer", "shorter", "empty", "int", "bool", "subclass"]))
    if change == "longer":
        row.append(draw(TABLE_FLOATS))
    elif change == "shorter":
        del row[i]
    elif change == "empty":
        row.clear()
    elif change == "int":
        row[i] = draw(st.integers(-(2**70), 2**70))
    elif change == "bool":
        row[i] = draw(st.booleans())
    else:
        row[i] = np.float64(row[i])
    return table


def make_partition(j=4):
    g = surrogate_g()
    return g, partition(g, j, MEASURE)


class TestPartitionFigure:
    def test_panel_structure(self):
        g, part = make_partition(4)
        svg = render_partition_figure(part)
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
        svg = render_partition_figure(part)
        vector_panels = panels(svg, "vector")
        assert all("model" in p.get("class").split() for p in vector_panels)
        bars = panels(svg, "bars")[0]
        ns = "{http://www.w3.org/2000/svg}"
        null_bar = [r for r in bars.findall(f"{ns}rect") if "null" in r.get("class", "")][0]
        assert float(null_bar.get("height")) == 0.0

    def test_deterministic(self):
        g, part = make_partition(3)
        assert render_partition_figure(part) == render_partition_figure(part)

    def test_scatter_matches_report_formatting(self):
        g, part = make_partition(4)
        svg = render_partition_figure(part)
        doc = partition_report(part, make_provenance({}))
        ns = "{http://www.w3.org/2000/svg}"
        circles = panels(svg, "scatter")[0].findall(f"{ns}circle")
        for circle, entry in zip(circles, doc["vectors"]):
            assert circle.get("data-proportion") == format(entry["proportion"], ".6g")
            assert circle.get("data-score") == format(entry["simplicity_score"], ".6g")

    @pytest.mark.parametrize("j", [0, 3, 6])
    def test_scatter_under_an_all_zero_form(self, j):
        # every score is 0, so the score axis spans 1 and each point sits on the bottom
        part = partition(surrogate_g(), j, custom_measure(SymMatrix(np.zeros((6, 6)))))
        points = svg_elements(render_partition_figure(part), "circle")
        assert len(points) == 6
        for point in points:
            assert math.isfinite(float(point.get("cx")))
            assert float(point.get("cy")) == 114.0

    @given(st.lists(st.tuples(TABLE_FLOATS | st.floats(), TABLE_FLOATS | st.floats()),
                    min_size=1, max_size=12))
    @example(list(zip([-0.0, 1e-7, 1e21, math.nan, 16.0, 1 / 3],
                      [1e21, math.nan, -0.0, 1e-7, -2.5, 0.1 + 0.2])))
    def test_polyline_matches_per_point_format(self, points):
        xs, ys = map(np.array, zip(*points))
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

    @pytest.mark.parametrize("exponent", [-50, 50])
    def test_response_unit_changes_no_byte(self, exponent):
        # a panel spans its largest |response|, so a power-of-two unit, which
        # scales every response exactly, leaves each pixel as it was
        summary = self.make_summary(reps=3)
        names = ("simplest_responses", "null_pc_responses",
                 "true_simplest_response", "true_pc_responses")
        scaled = dataclasses.replace(summary, **{
            name: getattr(summary, name) * 2.0**exponent for name in names
        })
        assert render_study_figure(scaled) == render_study_figure(summary)

    def test_zero_model_draws_flat_curves(self):
        zero = np.zeros((6, 6))
        params = SimulationParams(
            mu=np.zeros(6), g=clip_negative_eigenvalues(SymMatrix(zero), 0.0, grid=GRID),
            e=SymMatrix(zero), sigma2=0.0, n_families=12, family_size=4, design="half-sib",
            seed=0)
        svg = render_study_figure(run_study(params, reps=2, null_dim=3, measure=MEASURE))
        assert "nan" not in svg
        assert len(panels(svg, "response")) == 4


class TestLayout:
    @staticmethod
    def assert_framed_with_mid_axis(svg):
        ns = "{http://www.w3.org/2000/svg}"
        for panel in panels(svg):
            frame = panel.find(f"{ns}rect")
            assert frame.get("class") == "frame"
            width, height = float(frame.get("width")), float(frame.get("height"))
            assert (width, height) == (170.0, 130.0)
            # every panel that draws curves has one zero axis, at mid height
            axes = panel.findall(f"{ns}line")
            assert len(axes) == (panel.find(f"{ns}polyline") is not None)
            for axis in axes:
                assert axis.get("class") == "zero"
                assert float(axis.get("y1")) == float(axis.get("y2")) == height / 2

    def test_partition_figure(self):
        for j in (0, 3, 6):
            self.assert_framed_with_mid_axis(render_partition_figure(make_partition(j)[1]))

    @pytest.mark.parametrize("scale", [1.0, 1e-12, 1e12, 1e308])
    def test_study_figure_at_any_response_scale(self, scale):
        summary = run_study(study_params(n_families=12, family_size=4),
                            reps=2, null_dim=2, measure=MEASURE)
        names = ("simplest_responses", "null_pc_responses",
                 "true_simplest_response", "true_pc_responses")
        # the largest response magnitude, which sets the plotted span, becomes scale
        peak = max(float(np.abs(getattr(summary, name)).max()) for name in names)
        scaled = dataclasses.replace(summary, **{
            name: getattr(summary, name) / peak * scale for name in names
        })
        svg = render_study_figure(scaled)
        assert len(panels(svg, "response")) == 3
        assert "nan" not in svg
        self.assert_framed_with_mid_axis(svg)


class TestJsonReports:
    def test_round_trip_bit_exact(self):
        g, part = make_partition(4)
        doc = partition_report(part, make_provenance({"g": "g.json"}, clip_tolerance=0.0))
        data = report_json_bytes(doc)
        assert json.loads(data) == doc
        # numerics preserved exactly
        back = json.loads(data)
        assert back["vectors"][0]["proportion"] == part.proportions[0]
        assert back["eigenvalues"] == [float(x) for x in g.eig.eigenvalues]

    def test_report_and_figure_follow_a_hand_built_partition(self):
        # eigenvectors are formatted once per G; a partition of a G whose
        # decomposition was built by hand is drawn and reported from that G's
        # own eigenvectors, also after another G has taken and given back the
        # memo's one slot
        g, part = make_partition(3)
        flipped_g = GMatrix(g.matrix, EigenDecomposition(g.eig.eigenvalues, -g.eig.eigenvectors),
                            grid=g.grid)
        prov = make_provenance({})
        parts = [partition(h, 3, MEASURE) for h in (g, flipped_g, g)]
        for p in parts:
            doc = partition_report(p, prov)
            assert [v["coordinates"] for v in doc["vectors"]] == p.combined_basis().tolist()
            assert report_json_bytes(doc) == reference_json_bytes(doc)
        svg, flipped_svg, again = map(render_partition_figure, parts)
        assert svg != flipped_svg and again == svg
        fresh = dataclasses.replace(part, g=dataclasses.replace(g))  # the same G, not yet seen
        assert render_partition_figure(fresh) == svg

    def test_reports_of_one_g_share_no_lists(self):
        g, part = make_partition(3)
        first = partition_report(part, make_provenance({}))
        first["vectors"][0]["coordinates"][0] = 5.0
        second = partition_report(part, make_provenance({}))
        assert second["vectors"][0]["coordinates"] == part.model_vectors[0].tolist()
        assert report_json_bytes(second) == reference_json_bytes(second)

    def test_leading_share_of_reference_spectrum(self):
        g, part = make_partition(6)
        doc = partition_report(part, make_provenance({}))
        assert doc["vectors"][0]["proportion"] == pytest.approx(0.595, abs=0.001)

    def test_figure_provenance_metadata(self):
        g, part = make_partition(4)
        prov = make_provenance({"g": "g.json"}, seed=3)
        svg = render_partition_figure(part, prov)
        assert '<metadata id="provenance">' in svg
        assert render_partition_figure(part, prov) == svg

    def test_provenance_metadata_escaped_as_saxutils_does(self):
        g, part = make_partition(4)
        prov = make_provenance({"g": "a&b<c>d\"e'f.json"}, seed=3)
        svg = render_partition_figure(part, prov)
        blob = re.search(r'<metadata id="provenance">(.*)</metadata>', svg).group(1)
        assert blob == saxutils.escape(json.dumps(prov, sort_keys=True))
        metadata = svg_elements(svg, "metadata")[0]
        assert json.loads(metadata.text) == prov

    def test_clipped_indices_recorded(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        m = SymMatrix((q * np.array([5.0, 2.0, 1.0, 0.5, -0.1, -0.2])) @ q.T)
        g = clip_negative_eigenvalues(m, 0.0, grid=GRID)
        part = partition(g, 4, MEASURE)
        doc = partition_report(part, make_provenance({}))
        assert doc["clipped_indices"] == [4, 5]

    def test_partition_of_a_gridless_g(self):
        g = clip_negative_eigenvalues(SymMatrix(np.diag([3.0, 2.0, 1.0, 0.5])))
        part = partition(g, 1, sparseness_measure(g.dim))
        doc = partition_report(part, make_provenance({}))
        assert doc["grid"] is None
        assert json.loads(report_json_bytes(doc))["grid"] is None
        svg = render_partition_figure(part)
        assert len(panels(svg, "vector")) == g.dim
        assert "nan" not in svg

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

    def test_provenance_records_the_tolerance_table(self):
        assert make_provenance({})["tolerances"] == core.TOLERANCES

    def test_tolerance_table_names_every_rtol(self):
        # so that a tolerance added to core cannot be left out of provenance
        rtols = {name.lower(): value for name, value in vars(core).items()
                 if name.endswith("_RTOL")}
        assert core.TOLERANCES == rtols

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
        ([1.0, math.nan], "(top level)"),
    ], ids=["float-list", "list-of-dicts", "scalar", "top-level"])
    def test_non_finite_names_the_field(self, doc, field):
        with pytest.raises(ValueError):
            reference_json_bytes(doc)
        with pytest.raises(ValueError, match=rf"^report field {re.escape(field)} holds "):
            report_json_bytes(doc)

    @pytest.mark.parametrize("doc, accepted", [
        ({1: 0}, False),
        ({1: "a", 2.5: "b", -3: "c"}, False),
        ({True: 0}, False),
        ({None: [1.0]}, False),
        ({1e300: 0, 0.5: 1}, False),
        ({"keys": {math.inf: 0}}, False),
        ((1.0,), False),
        ((1.0, [2.0, (3, "x")]), False),
        ({"a": [1.0, (2.0,)]}, False),
        ([np.float64(0.1), 2.0], True),
    ], ids=["int-key", "numeric-keys", "bool-key", "none-key", "float-keys", "infinite-key",
            "tuple", "tuples", "nested-tuple", "float-subclass"])
    def test_non_string_keys_and_sequences(self, doc, accepted):
        # json.dumps writes all but the infinite key; the writer takes only str
        # keys and lists, and writes a float subclass as json.dumps does
        if accepted:
            assert report_json_bytes(doc) == reference_json_bytes(doc)
        else:
            with pytest.raises(TypeError):
                report_json_bytes(doc)

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


FLOAT_ROWS = st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8)


def nest(value, containers):
    """``value`` inside the given containers, innermost last."""
    for kind in reversed(containers):
        value = {"k": value, "z": 0.5} if kind == "dict" else [1.0, value, "x"]
    return value


class TestFloatMemo:
    """Each float list's text comes from a memo; the bytes must be json.dumps's regardless."""

    @given(st.lists(FLOAT_ROWS, min_size=1, max_size=4),
           st.lists(st.sampled_from(["dict", "list"]), max_size=4))
    def test_bytes_match_json_dumps(self, rows, containers):
        # every row twice, one level deeper the second time, and the whole document twice
        doc = nest([*rows, {"k": rows}, 2.0], containers)
        assert report_json_bytes(doc) == reference_json_bytes(doc)
        assert report_json_bytes(doc) == reference_json_bytes(doc)
        assert json.loads(report_json_bytes(doc)) == doc

    @pytest.mark.parametrize("first, then", [
        ([0.0, 1.0], [-0.0, 1.0]),    # equal, and they hash alike
        ([1.0, 2.0], [1, 2.0]),       # equal, and they hash alike
    ], ids=["negative-zero", "int"])
    def test_an_equal_list_is_not_given_the_text(self, first, then):
        for doc in ({"a": first}, {"a": then}, {"a": first}):
            assert report_json_bytes(doc) == reference_json_bytes(doc)

    def test_non_finite_names_the_field(self):
        # the same bits under two fields: each is named by its own
        row = [0.5, math.nan]
        for doc, field in ({"a": {"b": row}}, "a.b"), ({"c": row}, "c"), ({"a": [row]}, "a"):
            with pytest.raises(ValueError, match=rf"^report field {re.escape(field)} holds nan, "):
                report_json_bytes(doc)

    def test_sweep_formats_each_model_row_once(self):
        g = surrogate_g()
        docs = [partition_report(partition(g, j, MEASURE), {}) for j in range(g.dim + 1)]
        _bits_text.cache_clear()
        first = [report_json_bytes(doc) for doc in docs]
        misses = _bits_text.cache_info().misses
        # grid and eigenvalues once, each model row once, each null row at most once
        assert misses <= 2 + g.dim + g.dim * (g.dim + 1) // 2
        assert [report_json_bytes(doc) for doc in docs] == first
        assert _bits_text.cache_info().misses == misses
        assert first == [reference_json_bytes(doc) for doc in docs]


class TestFloatTables:
    """A table of floats is formatted as a whole; anything else falls back item by item."""

    @given(float_tables() | near_tables(), st.sampled_from(["", "  ", "      "]))
    @example([[-0.0, 5e-324], [1e16, 1e-5], [1e300, -1e300]], "")
    @example([[[0.5, 1.0]], [[], []]], "")
    def test_bytes_match_json_dumps(self, table, pad):
        for _ in range(len(pad) // 2):  # each enclosing list indents the table by two
            table = [table]
        for doc in (table, {"t": table, "u": [table, 1.0]}):
            assert report_json_bytes(doc) == reference_json_bytes(doc)
            assert report_json_bytes(doc) == reference_json_bytes(doc)  # from the memo

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 3)])
    def test_non_finite_names_the_field(self, shape, value):
        table = np.arange(math.prod(shape), dtype=float).reshape(shape)
        table[(-1,) * len(shape)] = value
        doc = {"replicates": {"vectors": table.tolist()}, "z": 1.0}
        with pytest.raises(ValueError, match=rf"^report field replicates\.vectors holds {value}, "):
            report_json_bytes(doc)

    def test_a_table_is_formatted_once(self):
        table = np.linspace(-1.0, 1.0, 24).reshape(4, 2, 3).tolist()
        _bits_text.cache_clear()
        assert report_json_bytes({"t": table}) == reference_json_bytes({"t": table})
        assert _bits_text.cache_info().misses == 1


class TestFragments:
    """A list's memoised text is made for one indent; at another it must not be reused."""

    @pytest.mark.parametrize("pad", ["", "  ", "      "])
    def test_fragment_at_another_pad(self, pad):
        row = [0.25, -1e300]
        first = row
        for _ in range(len(pad) // 2):  # each enclosing list indents the row by two
            first = [first]
        _bits_text.cache_clear()
        assert report_json_bytes(first) == reference_json_bytes(first)
        assert _bits_text.cache_info().currsize == 1  # the row's text at pad is memoised
        for doc in (row, {"a": row}, {"a": {"b": [row]}}, [[row]]):
            assert report_json_bytes(doc) == reference_json_bytes(doc)


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

    def test_failed_replace_removes_the_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), os.fspath(src))

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(PermissionError) as info:
            write_json({"a": 1}, "out.json")
        assert info.value.filename == "out.json"  # the path as given, not the temporary one
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        (target / "inner").mkdir(parents=True)  # a nonempty directory cannot be replaced
        with pytest.raises(OSError):
            write_json({"a": 1}, target)
        assert list(tmp_path.iterdir()) == [target]
