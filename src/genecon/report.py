"""Figure and report emission: small-multiple SVG panels and lossless JSON.

Figures are plain SVG 1.1 built by string assembly so that identical inputs
yield byte-identical documents: element order is fixed and every number is
formatted to six significant digits. Styling is class-based (solid model
curves, dashed nearly-null curves) with defaults in the embedded stylesheet.
JSON reports serialize every numeric result at full precision and carry a
provenance block (inputs, tolerances, seed, measure kind, relatedness,
software version, and the numpy version and LAPACK build that computed them).

Byte contract: :func:`report_json_bytes` returns exactly the UTF-8 bytes of
``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\\n"``. It
rejects with ``TypeError`` every key or value type that ``json.dumps`` rejects,
and with ``ValueError`` a NaN or infinity, naming the field that holds it,
since JSON has no spelling for either. It formats a list of floats in one join
instead of going through the pure-Python encoder that ``indent`` selects.
Figure coordinates are formatted in bulk the same way, with the same ``.6g``
text as formatting each point on its own.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from xml.sax import saxutils

import numpy as np

from . import __version__
from .core import DEGENERACY_RTOL, SYMMETRY_RTOL, GMatrix, TraitGrid
from .errors import DimensionMismatch
from .simplicity import SimplicityMeasure
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


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


@dataclass(frozen=True)
class FigureSpec:
    """Inputs for one partition figure: K vector panels plus two summaries."""

    partition: SubspacePartition
    grid: TraitGrid

    def __post_init__(self):
        if self.grid.size != self.partition.dim:
            raise DimensionMismatch(
                f"grid has {self.grid.size} points, partition is "
                f"{self.partition.dim}-dimensional"
            )

    @property
    def panel_count(self) -> int:
        return self.partition.dim + 2


def _panel_open(x: float, y: float, classes: str) -> str:
    return f'<g class="{classes}" transform="translate({_fmt(x)},{_fmt(y)})">'


def _frame(w: float, h: float) -> str:
    return f'<rect class="frame" x="0" y="0" width="{_fmt(w)}" height="{_fmt(h)}"/>'


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def _x_text(xs: np.ndarray) -> list[str]:
    """Each x pixel of a panel, formatted once with the comma that follows it."""
    return [f"{x:.6g}," for x in xs.tolist()]


def _polyline(x_text: list[str], ys: list[float], classes: str) -> str:
    pts = " ".join(map("{}{:.6g}".format, x_text, ys))
    return f'<polyline class="{classes}" points="{pts}"/>'


def _x_pixels(t: np.ndarray, width: float) -> np.ndarray:
    span = t[-1] - t[0]
    return _PAD + (t - t[0]) / span * (width - 2 * _PAD)


def _y_pixels(values: np.ndarray, lo: float, hi: float, height: float) -> np.ndarray:
    return height - _PAD - (values - lo) / (hi - lo) * (height - 2 * _PAD)


def _zero_line(w: float, h: float, span: float) -> str:
    """Horizontal axis of a panel whose vertical range is [-span, span]."""
    zero = _y_pixels(np.zeros(1), -span, span, h)[0]
    return (
        f'<line class="zero" x1="{_fmt(_PAD)}" y1="{_fmt(zero)}" '
        f'x2="{_fmt(w - _PAD)}" y2="{_fmt(zero)}"/>'
    )


def _scatter_panel(x, y, w, h, part: SubspacePartition, bound: float) -> list[str]:
    lines = [
        _panel_open(x, y, "panel scatter"),
        _frame(w, h),
        f'<text class="title" x="{_fmt(_PAD)}" y="{_fmt(_PAD - 3)}">'
        "simplicity vs variance share</text>",
    ]
    roles = ["model"] * part.j + ["null"] * part.null_dim
    top = max(bound, float(part.scores.max()) if part.scores.size else 1.0)
    for role, prop, score in zip(roles, part.proportions.tolist(), part.scores.tolist()):
        cx = _PAD + _clamp01(prop) * (w - 2 * _PAD)
        cy = h - _PAD - _clamp01(score / top) * (h - 2 * _PAD)
        lines.append(
            f'<circle class="pt {role}" cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" '
            f'data-proportion="{_fmt(prop)}" data-score="{_fmt(score)}"/>'
        )
    lines.append("</g>")
    return lines


def _bars_panel(x, y, w, h, part: SubspacePartition) -> list[str]:
    lines = [
        _panel_open(x, y, "panel bars"),
        _frame(w, h),
        f'<text class="title" x="{_fmt(_PAD)}" y="{_fmt(_PAD - 3)}">variance split</text>',
    ]
    bar_w = (w - 2 * _PAD) / 3.0
    for idx, (role, frac) in enumerate(
        (("model", part.model_variance_fraction), ("null", part.null_variance_fraction))
    ):
        bh = _clamp01(float(frac)) * (h - 2 * _PAD)
        bx = _PAD + bar_w * (0.5 + 1.5 * idx)
        lines.append(
            f'<rect class="bar {role}" x="{_fmt(bx)}" y="{_fmt(h - _PAD - bh)}" '
            f'width="{_fmt(bar_w * 0.8)}" height="{_fmt(bh)}" data-fraction="{_fmt(frac)}"/>'
        )
        lines.append(
            f'<text x="{_fmt(bx)}" y="{_fmt(h - 3)}">{role} {_fmt(frac)}</text>'
        )
    lines.append("</g>")
    return lines


def _overlay_panel(x, y, w, h, x_text, curves, truth, span, kind, caption) -> list[str]:
    """One faint curve per replicate and the true-parameter curve on top."""
    return [
        _panel_open(x, y, f"panel {kind} overlay"),
        _frame(w, h),
        _zero_line(w, h, span),
        *(_polyline(x_text, ys, "curve rep")
          for ys in _y_pixels(curves, -span, span, h).tolist()),
        _polyline(x_text, _y_pixels(truth, -span, span, h).tolist(), "curve truth"),
        f'<text class="title" x="{_fmt(_PAD)}" y="{_fmt(_PAD - 3)}">{caption}</text>',
        "</g>",
    ]


def _svg_open(width: int, height: int, provenance: dict | None) -> list[str]:
    """XML prolog, root element, stylesheet and the provenance metadata."""
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f"<style>{_STYLE}</style>",
    ]
    if provenance is not None:
        blob = saxutils.escape(json.dumps(provenance, sort_keys=True))
        lines.append(f'<metadata id="provenance">{blob}</metadata>')
    return lines


def render_partition_figure(spec: FigureSpec, provenance: dict | None = None) -> str:
    """K vector panels in one top row, scatter and variance bars below.

    The top row runs model vectors first (leading eigenvector leftmost), then
    nearly-null simplicity vectors simplest-first, so it always shows the
    leading eigenvector and, when the nearly null space is nonempty, the
    simplest nearly-null vector.
    """
    part = spec.partition
    k = part.dim
    pw, ph = _PANEL_WIDTH, _PANEL_HEIGHT
    width = 2 * _MARGIN + k * pw + (k - 1) * _GAP
    height = 2 * _MARGIN + 2 * ph + _GAP

    lines = _svg_open(width, height, provenance)
    x_text = _x_text(_x_pixels(np.asarray(spec.grid.points), pw))
    ys = _y_pixels(part.combined_basis(), -1.0, 1.0, ph).tolist()
    frame, zero = _frame(pw, ph), _zero_line(pw, ph, 1.0)
    label_at = f'x="{_fmt(_PAD + 3)}" y="{_fmt(_PAD - 3)}"'
    title_at = f'x="{_fmt(pw / 2 - 12)}" y="{_fmt(ph - 3)}"'
    for i in range(k):
        role = "model" if i < part.j else "null"
        number = i + 1 if i < part.j else i - part.j + 1
        caption = f"{'PC' if role == 'model' else 'S'}{number}"
        lines += [
            _panel_open(_MARGIN + i * (pw + _GAP), _MARGIN, f"panel vector {role}"),
            frame,
            zero,
            _polyline(x_text, ys[i], f"curve {role}"),
            f'<text class="label {role}" {label_at}>{number}</text>',
            f'<text class="title" {title_at}>{caption}</text>',
            "</g>",
        ]

    bound = 1.0
    if part.scores.size:
        bound = max(1.0, float(part.scores.max()))
    lines += _scatter_panel(_MARGIN, _MARGIN + ph + _GAP, pw, ph, part, bound)
    lines += _bars_panel(_MARGIN + pw + _GAP, _MARGIN + ph + _GAP, pw, ph, part)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_study_figure(summary: StudySummary, provenance: dict | None = None) -> str:
    """Overlay panels for the replicated study.

    Top row: all replicates' simplest nearly-null vectors, then the estimated
    nearly-null eigenvectors by rank; bottom row: the matching expected
    responses under the generating G. Each panel draws one faint curve per
    replicate and the true-parameter curve as a heavy line on top.
    """
    k = summary.params.dim
    j = k - summary.null_dim
    grid = summary.params.g.grid
    t = np.asarray(grid.points) if grid is not None else np.arange(k, dtype=float)
    cols = summary.null_dim + 1
    pw, ph = _PANEL_WIDTH, _PANEL_HEIGHT
    width = 2 * _MARGIN + cols * pw + (cols - 1) * _GAP
    height = 2 * _MARGIN + 2 * ph + _GAP

    # one column per direction: the simplest vector, then each nearly-null PC by rank
    vector_sets = [summary.simplest_vectors, *np.swapaxes(summary.null_pc_vectors, 0, 1)]
    response_sets = [summary.simplest_responses, *np.swapaxes(summary.null_pc_responses, 0, 1)]
    truth_vectors = [summary.true_simplest] + list(summary.true_null_pcs)
    truth_responses = [summary.true_simplest_response] + list(summary.true_pc_responses)
    captions = ["simplest"] + [f"PC{j + r + 1}" for r in range(summary.null_dim)]

    lines = _svg_open(width, height, provenance)
    x_text = _x_text(_x_pixels(t, pw))
    for col in range(cols):
        x = _MARGIN + col * (pw + _GAP)
        lines += _overlay_panel(x, _MARGIN, pw, ph, x_text, vector_sets[col], truth_vectors[col],
                                1.0, "vector", captions[col])
        span = max(
            float(np.abs(response_sets[col]).max()),
            float(np.abs(truth_responses[col]).max()),
            1e-12,
        )
        lines += _overlay_panel(x, _MARGIN + ph + _GAP, pw, ph, x_text, response_sets[col],
                                truth_responses[col], span, "response",
                                f"response to {captions[col]}")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


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
        "tolerances": {
            "symmetry_rtol": SYMMETRY_RTOL,
            "degeneracy_rtol": DEGENERACY_RTOL,
        },
    }


def partition_report(
    g: GMatrix,
    part: SubspacePartition,
    grid: TraitGrid,
    measure: SimplicityMeasure,
    provenance: dict,
) -> dict:
    """Lossless JSON document for one partition."""
    combined = part.combined_basis()
    vectors = []
    for i in range(part.dim):
        role = "model" if i < part.j else "null"
        number = i + 1 if i < part.j else i - part.j + 1
        entry = {
            "role": role,
            "number": number,
            "coordinates": combined[i].tolist(),
            "simplicity_score": float(part.scores[i]),
            "response_norm": float(part.response_norms[i]),
            "proportion": float(part.proportions[i]),
        }
        if role == "model":
            entry["eigenvalue"] = float(part.model_eigenvalues[i])
        vectors.append(entry)
    return {
        "provenance": provenance,
        "grid": grid.points.tolist(),
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
    p = summary.params
    return {
        "provenance": provenance,
        "reps": summary.reps,
        "null_dim": summary.null_dim,
        "measure": summary.measure_kind,
        "params": {
            "mu": p.mu.tolist(),
            "g": p.g.matrix.to_payload(),
            "e": p.e.to_payload(),
            "sigma2": float(p.sigma2),
            "families": p.n_families,
            "siblings": p.family_size,
            "design": p.design,
            "relatedness_c": float(p.relatedness),
            "seed": p.seed,
        },
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


def _key_text(key) -> str:
    """A dict key as ``json`` writes it: the string itself or a scalar's JSON text."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _encode(o, pad: str, out: list[str]) -> None:
    """Append the JSON text of ``o`` to ``out``; ``pad`` indents the line it starts on.

    The type tests run in ``json``'s order, so bools are written before ints
    and float or int subclasses are written as their base type.
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
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        try:
            # float.__repr__ raises TypeError on the first item that is not a float
            text = sep.join(map(float.__repr__, o))
        except TypeError:
            out.append("[\n" + inner)
            for i, item in enumerate(o):
                if i:
                    out.append(sep)
                _encode(item, inner, out)
        else:
            if "n" in text:  # only nan, inf and -inf contain an n
                raise _NonFinite(next(x for x in o if not math.isfinite(x)))
            out.append("[\n" + inner + text)
        out.append("\n" + pad + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = pad + "  "
        lead = "{\n" + inner
        for key, value in sorted(o.items()):
            text = _key_text(key)
            out.append(lead + encode_basestring_ascii(text) + ": ")
            try:
                _encode(value, inner, out)
            except _NonFinite as exc:
                exc.args += (text,)
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


def write_bytes_atomic(data: bytes, path: str | Path) -> None:
    """Write via a temporary file in the target directory, then rename.

    The temporary file is created like any other (mode 0o666 less the umask),
    and the rename keeps its mode.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(doc: dict, path: str | Path) -> None:
    write_bytes_atomic(report_json_bytes(doc), path)


def write_svg(text: str, path: str | Path) -> None:
    write_bytes_atomic(text.encode("utf-8"), path)
