"""Figure and report emission: small-multiple SVG panels and lossless JSON.

Figures are plain SVG 1.1 built by string assembly so that identical inputs
yield byte-identical documents: element order is fixed and every number is
formatted to six significant digits. Styling is class-based (solid model
curves, dashed nearly-null curves) with defaults in the embedded stylesheet.
The layout is written once and both figures compose it: a page of two rows of
panels, each panel framed at its (column, row), curve panels with their zero
axis at mid height, and one rule that labels vectors model 1..J, then null
1..K-J, which the JSON report uses too.
JSON reports serialize every numeric result at full precision and carry a
provenance block (inputs, tolerances, seed, measure kind, relatedness,
software version, and the numpy version and LAPACK build that computed them).

Byte contract: for a document of ``str`` keys and ``list`` containers, as
both report builders make, :func:`report_json_bytes` returns exactly the UTF-8
bytes of ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\\n"``.
Any other key or container, or a value ``json.dumps`` rejects, raises
``TypeError``; a NaN or infinity raises ``ValueError`` naming its field. A
table of floats (a list of floats, or of equal-length tables, such as a study's
(reps, K) vectors) is formatted as a whole, one join per list, not by the
encoder ``indent`` selects. A polyline's points are one ``%`` of a
``"x0,%.6g x1,%.6g ..."`` template: the ``.6g`` text of each point on its own.

Every partition of one G repeats G's leading eigenvectors, so their figure
panels are drawn once per G and every J takes its first J. Their report text
comes from a bounded memo of table text keyed by exact bits, shape and
indent, so a sweep formats each of them once too.
"""

from __future__ import annotations

import errno
import json
import os
import stat
import struct
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .core import TOLERANCES, GMatrix, _magnitude
from .simulate import StudySummary
from .spaces import SubspacePartition

_STYLE = """\
text { font-family: sans-serif; font-size: 10px; fill: #222; }
.title { font-size: 11px; }
.frame { fill: none; stroke: #888888; stroke-width: 1; }
.zero { stroke: #bbbbbb; stroke-width: 0.75; }
.curve { fill: none; stroke-width: 1.5; }
.curve.model { stroke: #1f77b4; }
.curve.null { stroke: #d62728; stroke-dasharray: 5 3; }
.curve.rep { stroke: #9e9e9e; stroke-width: 0.5; opacity: 0.55; }
.curve.truth { stroke: #000000; stroke-width: 2.5; }
.pt.model { fill: #1f77b4; }
.pt.null { fill: #d62728; }
.bar.model { fill: #1f77b4; }
.bar.null { fill: #d62728; }
.label.model { fill: #1f77b4; font-weight: bold; }
.label.null { fill: #d62728; font-weight: bold; }"""

_PAD = 16
_GAP = 12
_MARGIN = 16
_PANEL_WIDTH = 170
_PANEL_HEIGHT = 130
_INNER_WIDTH = _PANEL_WIDTH - 2 * _PAD
_INNER_HEIGHT = _PANEL_HEIGHT - 2 * _PAD
_BOTTOM = _PANEL_HEIGHT - _PAD

_FRAME = f'<rect class="frame" x="0" y="0" width="{_PANEL_WIDTH}" height="{_PANEL_HEIGHT}"/>'
# every vertical range is [-span, span], so zero maps to mid height whatever the span
_ZERO_AXIS = (
    f'<line class="zero" x1="{_PAD}" y1="{_PANEL_HEIGHT // 2}" '
    f'x2="{_PANEL_WIDTH - _PAD}" y2="{_PANEL_HEIGHT // 2}"/>'
)


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _labels(part: SubspacePartition) -> list[tuple[str, int]]:
    """(role, number) of each combined-basis vector: model 1..J, then null 1..K-J."""
    return ([("model", n) for n in range(1, part.j + 1)]
            + [("null", n) for n in range(1, part.null_dim + 1)])


def _x_text(xs: np.ndarray) -> str:
    """A panel's points template ``"x0,%.6g x1,%.6g ..."``, each x pixel formatted once."""
    return " ".join(f"{x:.6g},%.6g" for x in xs.tolist())


def _polyline(x_text: str, ys: list[float], classes: str) -> str:
    return f'<polyline class="{classes}" points="{x_text % tuple(ys)}"/>'


def _x_pixels(g: GMatrix) -> np.ndarray:
    """The x pixel of each trait: its grid point, or its index 0..K-1 when G has no grid."""
    t = np.asarray(g.grid.points) if g.grid is not None else np.arange(g.dim, dtype=float)
    return _PAD + (t - t[0]) / (t[-1] - t[0]) * _INNER_WIDTH


def _span(*drawn: np.ndarray) -> float:
    """The largest |value| drawn on an axis, or 1 when all are 0, so it fits them at any unit."""
    return float(max(_magnitude(a, None) for a in drawn)) or 1.0


def _y_pixels(values: np.ndarray, span: float) -> np.ndarray:
    """Pixel heights of values on the vertical range [-span, span]."""
    # halving is exact and keeps the sum finite for spans up to the largest float
    return _BOTTOM - (0.5 * values + 0.5 * span) / span * _INNER_HEIGHT


def _title(text: str) -> str:
    return f'<text class="title" x="{_PAD}" y="{_PAD - 3}">{text}</text>'


def _panel(col: int, row: int, classes: str, body: list[str]) -> list[str]:
    """The framed panel at (column, row) of the page, holding ``body``."""
    x = _MARGIN + col * (_PANEL_WIDTH + _GAP)
    y = _MARGIN + row * (_PANEL_HEIGHT + _GAP)
    return [f'<g class="{classes}" transform="translate({_fmt(x)},{_fmt(y)})">',
            _FRAME, *body, "</g>"]


def _page(cols: int, provenance: dict | None, panels: list[str]) -> str:
    """The SVG document: two rows of ``cols`` panels, stylesheet and provenance metadata."""
    width = 2 * _MARGIN + cols * _PANEL_WIDTH + (cols - 1) * _GAP
    height = 2 * _MARGIN + 2 * _PANEL_HEIGHT + _GAP
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f"<style>{_STYLE}</style>",
    ]
    if provenance is not None:
        blob = json.dumps(provenance, sort_keys=True)
        blob = blob.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        lines.append(f'<metadata id="provenance">{blob}</metadata>')
    return "\n".join([*lines, *panels, "</svg>"]) + "\n"


_POINT = '<circle class="pt {}" cx="{}" cy="{}" r="3" data-proportion="{}" data-score="{}"/>'


def _scatter(part: SubspacePartition) -> list[str]:
    cx = _PAD + np.clip(part.proportions, 0.0, 1.0) * _INNER_WIDTH
    cy = _BOTTOM - np.clip(part.scores / _span(part.scores), 0.0, 1.0) * _INNER_HEIGHT
    # each column formatted in one pass, as _fmt would format each point
    columns = (map("{:.6g}".format, c.tolist()) for c in (cx, cy, part.proportions, part.scores))
    roles = (role for role, _ in _labels(part))
    return [_title("simplicity vs variance share"), *map(_POINT.format, roles, *columns)]


def _bars(part: SubspacePartition) -> list[str]:
    body = [_title("variance split")]
    bar_w = _INNER_WIDTH / 3.0
    for idx, (role, frac) in enumerate(
        (("model", part.model_variance_fraction), ("null", part.null_variance_fraction))
    ):
        bh = min(max(float(frac), 0.0), 1.0) * _INNER_HEIGHT
        bx = _PAD + bar_w * (0.5 + 1.5 * idx)
        body += [
            f'<rect class="bar {role}" x="{_fmt(bx)}" y="{_fmt(_BOTTOM - bh)}" '
            f'width="{_fmt(bar_w * 0.8)}" height="{_fmt(bh)}" data-fraction="{_fmt(frac)}"/>',
            f'<text x="{_fmt(bx)}" y="{_PANEL_HEIGHT - 3}">{role} {_fmt(frac)}</text>',
        ]
    return body


def _overlay(x_text, curves, truth, span, caption) -> list[str]:
    """One faint curve per replicate and the true-parameter curve on top."""
    return [
        _ZERO_AXIS,
        *(_polyline(x_text, ys, "curve rep") for ys in _y_pixels(curves, span).tolist()),
        _polyline(x_text, _y_pixels(truth, span).tolist(), "curve truth"),
        _title(caption),
    ]


def _vector_panel(col: int, role: str, number: int, x_text: list[str], ys: list[float]) -> str:
    """The panel at (column, 0) drawing one basis vector, as one block of lines."""
    caption = f"{'PC' if role == 'model' else 'S'}{number}"
    return "\n".join(_panel(col, 0, f"panel vector {role}", [
        _ZERO_AXIS,
        _polyline(x_text, ys, f"curve {role}"),
        f'<text class="label {role}" x="{_PAD + 3}" y="{_PAD - 3}">{number}</text>',
        f'<text class="title" x="{_PANEL_WIDTH // 2 - 12}" y="{_PANEL_HEIGHT - 3}">'
        f'{caption}</text>',
    ]))


@lru_cache(maxsize=1)
def _model_rows(g: GMatrix) -> tuple[list[str], list[str]]:
    """Each of G's K eigenvectors as a figure panel, and G's x text.

    Model PC i of every partition of G is row i of G's eigenvector matrix and
    sits in column i-1 of the figure, so its panel is the same at every J.
    GMatrix hashes by identity and is immutable, so one slot serves a sweep.
    """
    x_text = _x_text(_x_pixels(g))
    panels = [_vector_panel(col, "model", col + 1, x_text, ys)
              for col, ys in enumerate(_y_pixels(g.eig.eigenvectors.T, 1.0).tolist())]
    return panels, x_text


def render_partition_figure(part: SubspacePartition, provenance: dict | None = None) -> str:
    """K vector panels in one top row, scatter and variance bars below.

    The top row runs model vectors first (leading eigenvector leftmost), then
    nearly-null simplicity vectors simplest-first, so it always shows the
    leading eigenvector and, when the nearly null space is nonempty, the
    simplest nearly-null vector. Curves run over the grid of the partition's G
    (over trait indices if it has none).
    """
    model_panels, x_text = _model_rows(part.g)
    ys = _y_pixels(part.null_basis.vectors, 1.0).tolist()
    panels = model_panels[:part.j] + [
        _vector_panel(part.j + i, "null", i + 1, x_text, y) for i, y in enumerate(ys)
    ]
    panels += _panel(0, 1, "panel scatter", _scatter(part))
    panels += _panel(1, 1, "panel bars", _bars(part))
    return _page(part.dim, provenance, panels)


def render_study_figure(summary: StudySummary, provenance: dict | None = None) -> str:
    """Overlay panels for the replicated study.

    Top row: all replicates' simplest nearly-null vectors, then the estimated
    nearly-null eigenvectors by rank; bottom row: the matching expected
    responses under the generating G. Each panel draws one faint curve per
    replicate and the true-parameter curve as a heavy line on top.
    """
    j = summary.params.dim - summary.null_dim
    # one column per direction: the simplest vector, then each nearly-null PC by rank
    columns = zip(
        [summary.simplest_vectors, *np.swapaxes(summary.null_pc_vectors, 0, 1)],
        [summary.simplest_responses, *np.swapaxes(summary.null_pc_responses, 0, 1)],
        [summary.true_simplest, *summary.true_null_pcs],
        [summary.true_simplest_response, *summary.true_pc_responses],
        ["simplest"] + [f"PC{j + r + 1}" for r in range(summary.null_dim)],
    )
    x_text = _x_text(_x_pixels(summary.params.g))
    panels = []
    for col, (vectors, responses, true_vector, true_response, caption) in enumerate(columns):
        span = _span(responses, true_response)
        panels += _panel(col, 0, "panel vector overlay",
                         _overlay(x_text, vectors, true_vector, 1.0, caption))
        panels += _panel(col, 1, "panel response overlay",
                         _overlay(x_text, responses, true_response, span,
                                  f"response to {caption}"))
    return _page(summary.null_dim + 1, provenance, panels)


def make_provenance(
    inputs: dict,
    seed: int | None = None,
    measure_kind: str | None = None,
    clip_tolerance: float | None = None,
    relatedness: float | None = None,
    rng: str | None = None,
) -> dict:
    # output bytes depend on the LAPACK build behind numpy.linalg.eigh
    lapack = np.show_config(mode="dicts").get("Build Dependencies", {}).get("lapack", {})
    return {
        "software": "genecon",
        "version": __version__,
        "numpy": np.__version__,
        "lapack": {"name": lapack.get("name"), "version": lapack.get("version")},
        "inputs": inputs,
        "seed": seed,
        "measure": measure_kind,
        "clip_tolerance": clip_tolerance,
        "relatedness_c": relatedness,
        "rng": rng,
        "tolerances": dict(TOLERANCES),
    }


def partition_report(part: SubspacePartition, provenance: dict) -> dict:
    """Lossless JSON document for one partition; ``grid`` is null if its G has no grid."""
    g, measure = part.g, part.measure
    coordinates = part.combined_basis().tolist()
    vectors = []
    for i, (role, number) in enumerate(_labels(part)):
        entry = {
            "role": role,
            "number": number,
            "coordinates": coordinates[i],
            "simplicity_score": float(part.scores[i]),
            "response_norm": float(part.response_norms[i]),
            "proportion": float(part.proportions[i]),
        }
        if role == "model":
            entry["eigenvalue"] = float(part.model_eigenvalues[i])
        vectors.append(entry)
    return {
        "provenance": provenance,
        "grid": g.grid.points.tolist() if g.grid is not None else None,
        "dim": part.dim,
        "J": part.j,
        "eigenvalues": g.eig.eigenvalues.tolist(),
        "clipped_indices": [int(i) for i in g.clipped_indices],
        "model_variance_fraction": float(part.model_variance_fraction),
        "null_variance_fraction": float(part.null_variance_fraction),
        "zero_variance": bool(part.zero_variance),
        "boundary_tie": bool(part.boundary_tie),
        "null_degenerate": bool(part.null_basis.degenerate),
        "measure": {
            "kind": measure.kind,
            "score_upper_bound": float(measure.score_upper_bound),
        },
        "vectors": vectors,
    }


def study_report(summary: StudySummary, provenance: dict) -> dict:
    """Lossless JSON document for a replicated study."""
    return {
        "provenance": provenance,
        "reps": summary.reps,
        "null_dim": summary.null_dim,
        "measure": summary.measure_kind,
        "params": {**summary.params.to_payload(), "relatedness_c": summary.params.relatedness},
        "replicates": {
            "min_raw_eigenvalue": summary.min_raw_eigenvalues.tolist(),
            "negative_min_eigenvalue": (summary.min_raw_eigenvalues < 0.0).tolist(),
            "canonical_distance_sq": summary.canonical_distances_sq.tolist(),
            "simplest_response_norm": summary.simplest_response_norms.tolist(),
            "null_pc_response_norms": summary.null_pc_response_norms.tolist(),
            "simplest_vectors": summary.simplest_vectors.tolist(),
            "null_pc_vectors": summary.null_pc_vectors.tolist(),
            "simplest_responses": summary.simplest_responses.tolist(),
            "null_pc_responses": summary.null_pc_responses.tolist(),
        },
        "true": {
            "null_pcs": summary.true_null_pcs.tolist(),
            "simplest": summary.true_simplest.tolist(),
            "simplest_response": summary.true_simplest_response.tolist(),
            "pc_responses": summary.true_pc_responses.tolist(),
        },
        "aggregate": {
            "simplest_norm_mean": float(summary.simplest_norm_mean),
            "simplest_norm_sd": float(summary.simplest_norm_sd),
            "pc_norm_means": summary.pc_norm_means.tolist(),
            "pc_norm_sds": summary.pc_norm_sds.tolist(),
            "negative_fraction": float(summary.negative_fraction),
            "min_eigenvalue_observed": float(summary.min_eigenvalue_observed),
            "mean_canonical_distance_sq": float(summary.mean_canonical_distance_sq),
        },
    }


class _NonFinite(ValueError):
    """A NaN or infinity in a report; ``args``: the value, then the keys to it, innermost first."""

    def __str__(self) -> str:
        value, *keys = self.args
        field = ".".join(reversed(keys)) or "(top level)"
        return f"report field {field} holds {value!r}, which is not a JSON number"


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    if "n" in text:  # only nan, inf and -inf contain an n
        raise _NonFinite(x)
    return text


def _floats_text(items: list, pad: str) -> str | None:
    """The JSON text at ``pad`` of a list of finite floats or of equal-length tables, else None."""
    if not items:
        return "[]"
    shape, leaves = [len(items)], items
    while (kinds := {*map(type, leaves)}) == {list}:
        lengths = {*map(len, leaves)}
        if len(lengths) != 1:
            return None
        shape.append(lengths.pop())
        leaves = [*chain.from_iterable(leaves)]
    if kinds != {float}:  # exactly, so that 1 is never written as 1.0
        return None
    # the exact bits, as 0.0 == -0.0 and the two hash alike
    return _bits_text(struct.pack(f"{len(leaves)}d", *leaves), tuple(shape), pad)


# A partition report holds K + 2 float lists (the grid, the eigenvalues and K
# coordinate rows), so 256 entries keep a sweep's model rows cached for
# K <= 254 while capping the memory the memo holds.
@lru_cache(maxsize=256)
def _bits_text(bits: bytes, shape: tuple[int, ...], pad: str) -> str | None:
    """:func:`_floats_text` of the ``shape`` table packed in ``bits``; None if one is not finite."""
    texts = [*map(float.__repr__, struct.unpack(f"{len(bits) // 8}d", bits))]
    for depth in reversed(range(len(shape))):  # each level's lists, innermost first
        n, inner = shape[depth], pad + "  " * (depth + 1)
        texts = ["[\n" + inner + (",\n" + inner).join(texts[i:i + n]) + "\n" + inner[2:] + "]"
                 for i in range(0, len(texts), n)]
    if "n" in texts[0]:  # only nan, inf and -inf contain an n
        return None
    return texts[0]


def _encode(o, pad: str, out: list[str]) -> None:
    """Append the JSON text of ``o`` to ``out``; ``pad`` indents the line it starts on.

    The type tests run in ``json``'s order, so bools are written before ints
    and float or int subclasses as their base type; keys must be ``str``. A
    table of floats is formatted as a whole, once per distinct table.
    """
    if isinstance(o, str):
        out.append(encode_basestring_ascii(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    elif isinstance(o, float):
        out.append(_float_text(o))
    elif isinstance(o, list):
        text = _floats_text(o, pad)
        if text is not None:
            out.append(text)
            return
        # items of other types, or a NaN or infinity to be named by its field
        inner = pad + "  "
        out.append("[\n" + inner)
        for i, item in enumerate(o):
            if i:
                out.append(",\n" + inner)
            _encode(item, inner, out)
        out.append("\n" + pad + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = pad + "  "
        lead = "{\n" + inner
        for key, value in sorted(o.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(lead + encode_basestring_ascii(key) + ": ")
            try:
                _encode(value, inner, out)
            except _NonFinite as exc:
                exc.args += (key,)
                raise
            lead = ",\n" + inner
        out.append("\n" + pad + "}")
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def report_json_bytes(doc: dict) -> bytes:
    """The UTF-8 bytes of ``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\\n"``."""
    out: list[str] = []
    _encode(doc, "", out)
    out.append("\n")
    return "".join(out).encode("utf-8")


def _check_target(path: str | Path) -> Path:
    """``path`` as a ``Path`` if a file may be written there; else an ``OSError`` naming it.

    The path must have a file name ("", "." and "/" have none) and a parent
    directory that exists, and an existing target must be a regular file: a
    symlink, a FIFO or a device is never replaced. The error names ``path``
    as given.
    """
    target = Path(path)
    try:
        if not target.name:
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        try:
            if not stat.S_ISREG(target.lstat().st_mode):
                raise FileExistsError(errno.EEXIST, "exists and is not a regular file")
        except FileNotFoundError:
            target.parent.stat()  # a new file, in a directory that must exist
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    return target


def write_bytes_atomic(data: bytes, path: str | Path) -> None:
    """Write via a temporary file in the target directory, then rename.

    The target must pass :func:`_check_target`. The temporary file is created
    like any other (mode 0o666 less the umask), and the rename keeps its
    mode. A failure is raised as an ``OSError`` that names ``path`` as given,
    not the temporary file.
    """
    given, path = os.fspath(path), _check_target(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
        try:
            with fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, given) from exc


def write_json(doc: dict, path: str | Path) -> None:
    write_bytes_atomic(report_json_bytes(doc), path)


def write_svg(text: str, path: str | Path) -> None:
    write_bytes_atomic(text.encode("utf-8"), path)
