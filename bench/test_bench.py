"""Tests of the benchmark's own checks and counters.

    python3 -m pytest -q bench/test_bench.py

Runs each workload's CLI invocation twice, traced, in a fresh interpreter
(under a minute in all), then shows that every output check passes on the
real outputs and fails on a deliberately corrupted copy.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import _digest, check, spawn, tail  # noqa: E402
from tracer import FUNCTIONS  # noqa: E402
from workloads import STUDY_REPS, WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: work dir, check context and two traced invocations' results."""
    out = {}
    for name, workload in WORKLOADS.items():
        work = tmp_path_factory.mktemp(name)
        (work / "inputs").mkdir()
        ctx = workload.prepare(work / "inputs", np.random.default_rng(7))
        samples = []
        for i in range(2):
            (work / f"out{i}").mkdir()
            sample = spawn(work, workload.calls(f"out{i}"), trace=True)
            assert "error" not in sample, sample
            samples.append(sample)
        out[name] = (work, ctx, samples)
    return out


def _copy(work: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "out"
    shutil.copytree(work / "out0", dst)
    return dst


def _edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _fails(name, runs, tmp_path, corrupt) -> list[str]:
    work, ctx, _ = runs[name]
    out = _copy(work, tmp_path)
    corrupt(out)
    return WORKLOADS[name].check(out, ctx)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_pass_and_outputs_are_byte_identical(name, runs):
    work, ctx, _ = runs[name]
    assert WORKLOADS[name].check(work / "out0", ctx) == []
    assert _digest(work / "out0") == _digest(work / "out1")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_exactly_across_traced_runs(name, runs):
    first, second = (s["trace"] for s in runs[name][2])
    assert first["counts"] == second["counts"]
    assert first["calls"] == second["calls"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_self_times_add_up_to_the_wall_time(name, runs):
    for sample in runs[name][2]:
        spans = sample["trace"]
        assert spans["calls"]["cli.main"] == len(WORKLOADS[name].calls("out"))
        uncovered = sample["wall_s"] - sum(spans["self_s"].values())
        assert 0.0 <= uncovered < 0.01 * sample["wall_s"]


def test_every_traced_function_is_reached_by_some_workload(runs):
    called = {f for _, _, samples in runs.values()
              for f, n in samples[0]["trace"]["calls"].items() if n}
    assert called == set(FUNCTIONS)


def test_computed_counts_match_their_formulas(runs):
    counts = runs["study_ref"][2][0]["trace"]["counts"]
    assert counts["simulate.normals_drawn"] == STUDY_REPS * 100 * 6 * (1 + 3 * 20)
    assert runs["analyze_csv"][2][0]["trace"]["counts"]["estimate.records_parsed"] == 50_000
    work = runs["sweep_ref"][0]
    written = sum(p.stat().st_size for p in (work / "out0").rglob("*") if p.is_file())
    assert runs["sweep_ref"][2][0]["trace"]["counts"]["report.bytes_written"] == written


def _perturb_eigenvalue(doc):
    doc["eigenvalues"][1] *= 1.001


def _break_fractions(doc):
    doc["model_variance_fraction"] += 1e-6


def _break_orthonormality(doc):
    doc["vectors"][0]["coordinates"][0] += 1e-6


def _break_svg(path: Path):
    path.write_text(path.read_text()[:-20])


SWEEP_CORRUPTIONS = {
    "eigenvalue": lambda d: _edit_json(d / "report_J03.json", _perturb_eigenvalue),
    "fractions": lambda d: _edit_json(d / "report_J03.json", _break_fractions),
    "orthonormal": lambda d: _edit_json(d / "report_J03.json", _break_orthonormality),
    "missing pair": lambda d: (d / "report_J06.json").unlink(),
    "svg": lambda d: _break_svg(d / "figure_J02.svg"),
}


@pytest.mark.parametrize("kind", list(SWEEP_CORRUPTIONS))
@pytest.mark.parametrize("name,subdir", [("sweep_ref", "height"), ("sweep_fine", "fine")])
def test_sweep_checks_catch_corruption(name, subdir, kind, runs, tmp_path):
    assert _fails(name, runs, tmp_path, lambda out: SWEEP_CORRUPTIONS[kind](out / subdir))


@pytest.mark.parametrize("corrupt", [
    lambda d: _edit_json(d / "report.json", _perturb_eigenvalue),
    lambda d: _edit_json(d / "report.json", _break_fractions),
    lambda d: _edit_json(d / "report.json", _break_orthonormality),
    lambda d: _edit_json(d / "report.json", lambda doc: doc.update(J=3)),
    lambda d: _break_svg(d / "figure.svg"),
], ids=["eigenvalue", "fractions", "orthonormal", "J", "svg"])
def test_analyze_checks_catch_corruption(corrupt, runs, tmp_path):
    assert _fails("analyze_csv", runs, tmp_path, corrupt)


def _set_replicates(doc, simplest=None, pc=None, minima=None):
    """Replace per-replicate records and recompute the aggregates consistently."""
    reps, agg = doc["replicates"], doc["aggregate"]
    if simplest is not None:
        reps["simplest_response_norm"] = list(simplest)
    if pc is not None:
        reps["null_pc_response_norms"] = pc.tolist()
    if minima is not None:
        reps["min_raw_eigenvalue"] = list(minima)
    s = np.array(reps["simplest_response_norm"])
    p = np.array(reps["null_pc_response_norms"])
    m = np.array(reps["min_raw_eigenvalue"])
    agg.update(
        simplest_norm_mean=s.mean(), simplest_norm_sd=s.std(ddof=1),
        pc_norm_means=p.mean(axis=0).tolist(), pc_norm_sds=p.std(axis=0, ddof=1).tolist(),
        negative_fraction=float(np.mean(m < 0.0)), min_eigenvalue_observed=m.min(),
    )


def _fail_a(doc):
    _set_replicates(doc, minima=np.abs(doc["replicates"]["min_raw_eigenvalue"]) + 1e-9)


def _fail_b(doc):
    pc0 = np.array(doc["replicates"]["null_pc_response_norms"])[:, 0]
    _set_replicates(doc, simplest=pc0 * 0.99)


def _fail_c(doc):
    s = np.array(doc["replicates"]["simplest_response_norm"])
    pc0 = np.array(doc["replicates"]["null_pc_response_norms"])[:, 0]
    _set_replicates(doc, simplest=s.mean() + 1.1 * (pc0 - pc0.mean()))


def _drop_replicate(doc):
    for key in doc["replicates"]:
        doc["replicates"][key].pop()


@pytest.mark.parametrize("corrupt", [
    _drop_replicate,
    lambda doc: doc.update(reps=STUDY_REPS - 1),
    lambda doc: doc["aggregate"].update(simplest_norm_mean=doc["aggregate"]["simplest_norm_mean"] * 1.01),
    _fail_a,
    _fail_b,
    _fail_c,
], ids=["dropped replicate", "reps", "aggregate", "ordering a", "ordering b", "ordering c"])
def test_study_checks_catch_corruption(corrupt, runs, tmp_path):
    fails = _fails("study_ref", runs, tmp_path, lambda d: _edit_json(d / "summary.json", corrupt))
    assert fails


def test_ordering_corruptions_hit_only_their_own_ordering(runs, tmp_path):
    for corrupt, tag in ((_fail_a, "(a)"), (_fail_b, "(b)"), (_fail_c, "(c)")):
        work, ctx, _ = runs["study_ref"]
        out = tmp_path / tag
        shutil.copytree(work / "out0", out)
        _edit_json(out / "summary.json", corrupt)
        fails = WORKLOADS["study_ref"].check(out, ctx)
        assert fails and all(f.startswith(tag) for f in fails), fails


@pytest.mark.parametrize("name,path,key", [
    ("study_ref", "summary.json", "aggregate"),
    ("sweep_ref", "growth_rate/report_J02.json", "vectors"),
    ("sweep_fine", "fine/report_J10.json", "eigenvalues"),
    ("analyze_csv", "report.json", "null_variance_fraction"),
])
def test_unreadable_output_counts_as_failed(name, path, key, runs, tmp_path):
    work, ctx, _ = runs[name]
    out = _copy(work, tmp_path)
    _edit_json(out / path, lambda doc: doc.pop(key))
    fails = check(WORKLOADS[name], out, ctx)
    assert fails and fails[0].startswith("malformed output")


def test_digest_sees_one_changed_byte(runs, tmp_path):
    work = runs["analyze_csv"][0]
    out = _copy(work, tmp_path)
    svg = out / "figure.svg"
    data = bytearray(svg.read_bytes())
    data[-10] ^= 1
    svg.write_bytes(bytes(data))
    assert _digest(out) != _digest(work / "out0")


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    def files(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        WORKLOADS[name].prepare(d, np.random.default_rng(seed))
        return {p.name: p.read_bytes() for p in d.iterdir()}

    first = files(3, "a")
    assert first == files(3, "b")
    assert first != files(4, "c")


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail(list(range(10))) is None
    q, value = tail(list(range(100)))
    assert (q, value) == (90, 89)
    assert sum(v > value for v in range(100)) == 10


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep_ref", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
