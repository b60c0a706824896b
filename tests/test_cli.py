import argparse
import contextlib
import importlib
import io
import json
import os
import re
import stat
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import genecon

from genecon.cli import _study_config, main
from genecon.core import GMatrix
from genecon.estimate import save_family_csv
from genecon.reference import (
    GROWTH_EIGENVALUES,
    SURROGATE_ENV_VARIANCE,
    SURROGATE_NOISE_VARIANCE,
    TEMPERATURE_POINTS,
    study_params,
)
from genecon.simulate import generate_dataset

IDENTITY6 = np.eye(6).ravel().tolist()
GRID_PAYLOAD = {"points": list(TEMPERATURE_POINTS)}
G_PAYLOAD = {"dim": 6, "entries": list(np.diag(GROWTH_EIGENVALUES).ravel())}
STUDY_CONFIG = {
    "grid": GRID_PAYLOAD,
    "g": G_PAYLOAD,
    "e": {"dim": 6, "entries": list((SURROGATE_ENV_VARIANCE * np.eye(6)).ravel())},
    "sigma2": SURROGATE_NOISE_VARIANCE,
    "mu": [0.0] * 6,
    "families": 10,
    "siblings": 4,
    "design": "half-sib",
    "seed": 11,
    "reps": 3,
    "null_dim": 3,
    "measure": "d1",
}


@pytest.fixture
def inputs(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(GRID_PAYLOAD))
    g = tmp_path / "g.json"
    g.write_text(json.dumps(G_PAYLOAD))
    return {"grid": grid, "g": g, "dir": tmp_path}


@pytest.fixture
def study_config(tmp_path, inputs):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(STUDY_CONFIG))
    return path


def identity_inputs(tmp_path, points):
    """A grid file with these points and a G file holding the identity of that size."""
    grid, g = tmp_path / "grid.json", tmp_path / "g.json"
    grid.write_text(json.dumps({"points": points}))
    g.write_text(json.dumps({"dim": len(points), "entries": np.eye(len(points)).ravel().tolist()}))
    return grid, g


class TestAnalyze:
    def test_success(self, inputs, tmp_path):
        out = tmp_path / "report.json"
        svg = tmp_path / "fig.svg"
        code = main([
            "analyze", "--g", str(inputs["g"]), "--grid", str(inputs["grid"]),
            "--J", "4", "--measure", "d1", "--out", str(out), "--svg", str(svg),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["J"] == 4
        assert doc["null_variance_fraction"] == pytest.approx(0.008 / 1.040, abs=1e-12)
        svg_text = svg.read_text()
        assert svg_text.startswith("<?xml")
        # every CLI output embeds the provenance block, figures included
        assert '<metadata id="provenance">' in svg_text
        assert doc["provenance"]["measure"] == "d1"

    def test_estimation_pipeline(self, inputs, tmp_path):
        # synthesize a balanced CSV and analyze from raw data
        rng = np.random.default_rng(3)
        rows = ["family,individual," + ",".join(f"t{i+1}" for i in range(6))]
        for fam in range(5):
            for ind in range(4):
                vals = rng.standard_normal(6)
                rows.append(f"F{fam},I{ind}," + ",".join(repr(float(v)) for v in vals))
        data = tmp_path / "families.csv"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "est.json"
        code = main([
            "analyze", "--data", str(data), "--design", "halfsib",
            "--grid", str(inputs["grid"]), "--J", "2", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["provenance"]["relatedness_c"] == 4.0

    def test_byte_identical_reruns(self, inputs, tmp_path):
        args = lambda out, svg: [
            "analyze", "--g", str(inputs["g"]), "--grid", str(inputs["grid"]),
            "--J", "3", "--out", str(out), "--svg", str(svg),
        ]
        a_out, a_svg = tmp_path / "a.json", tmp_path / "a.svg"
        b_out, b_svg = tmp_path / "b.json", tmp_path / "b.svg"
        assert main(args(a_out, a_svg)) == 0
        assert main(args(b_out, b_svg)) == 0
        assert a_out.read_bytes() == b_out.read_bytes()
        assert a_svg.read_bytes() == b_svg.read_bytes()

    def test_missing_grid_names_flag(self, inputs, tmp_path, capsys):
        code = main(["analyze", "--g", str(inputs["g"]), "--J", "2",
                     "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "--grid" in capsys.readouterr().err

    def test_data_without_design(self, inputs, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(["analyze", "--data", str(inputs["g"]), "--grid", str(inputs["grid"]),
                     "--J", "2", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "genecon analyze: --design is required with --data\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    @pytest.mark.parametrize("dry_run", [False, True])
    def test_design_with_g_is_rejected(self, inputs, tmp_path, capsys, command, dry_run):
        # --design is read only with --data, so with --g it would be ignored
        outputs = (["--J", "2", "--out", str(tmp_path / "x.json")] if command == "analyze" else
                   ["--out-dir", str(tmp_path / "sweep")])
        argv = [command, "--g", str(inputs["g"]), "--grid", str(inputs["grid"]),
                "--design", "fullsib", *outputs, *["--dry-run"] * dry_run]
        before = sorted(tmp_path.iterdir())
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"genecon {command}: --design is read only with --data, not with --g\n")
        assert sorted(tmp_path.iterdir()) == before

    def test_both_inputs_rejected(self, inputs, tmp_path, capsys):
        code = main([
            "analyze", "--g", str(inputs["g"]), "--data", str(inputs["g"]),
            "--grid", str(inputs["grid"]), "--J", "2", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "--g" in capsys.readouterr().err

    def test_j_out_of_range(self, inputs, tmp_path, capsys):
        code = main([
            "analyze", "--g", str(inputs["g"]), "--grid", str(inputs["grid"]),
            "--J", "9", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "--J" in capsys.readouterr().err

    def test_missing_file(self, inputs, tmp_path, capsys):
        code = main([
            "analyze", "--g", str(tmp_path / "absent.json"), "--grid", str(inputs["grid"]),
            "--J", "2", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "absent.json" in capsys.readouterr().err

    def test_malformed_matrix_is_usage_error(self, inputs, tmp_path, capsys):
        bad = tmp_path / "bad_g.json"
        bad.write_text("{broken")
        code = main([
            "analyze", "--g", str(bad), "--grid", str(inputs["grid"]),
            "--J", "2", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "bad_g.json" in capsys.readouterr().err

    def test_asymmetric_matrix_is_usage_error(self, inputs, tmp_path, capsys):
        bad = tmp_path / "asym.json"
        bad.write_text(json.dumps({"dim": 2, "entries": [1.0, 0.5, 0.0, 1.0]}))
        code = main([
            "analyze", "--g", str(bad), "--grid", str(inputs["grid"]),
            "--J", "1", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "asym.json" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, content, reason", [
        ("--grid", "3", "must be a JSON object"),
        ("--grid", '{"points": {"a": 1}}', "malformed grid payload"),
        ("--g", "[1, 2]", "must be a JSON object"),
        pytest.param("--g", json.dumps({"dim": 6.5, "entries": IDENTITY6}),
                     "dim must be an integer", id="fractional-dim"),
        pytest.param("--g", json.dumps({"dim": 6, "entries": ["1"] + IDENTITY6[1:]}),
                     "entries must be a number", id="string-entry"),
        pytest.param("--grid", json.dumps({"points": [str(t) for t in TEMPERATURE_POINTS]}),
                     "points must be a number", id="string-points"),
        pytest.param("--grid", '{"points": [false, true, 2, 3, 4, 5]}',
                     "points must be a number", id="bool-points"),
        pytest.param("--g", json.dumps({"dim": -1, "entries": [1.0]}),
                     "dim must be at least 1", id="negative-dim"),
        pytest.param("--g", json.dumps({"entries": IDENTITY6}),
                     "matrix payload missing 'dim'", id="missing-dim"),
        pytest.param("--g", json.dumps({"dim": 6}),
                     "matrix payload missing 'entries'", id="missing-entries"),
    ])
    def test_non_object_json_is_usage_error(self, inputs, tmp_path, capsys, flag, content,
                                            reason):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        paths = {"--g": inputs["g"], "--grid": inputs["grid"], flag: bad}
        out = tmp_path / "x.json"
        code = main([
            "analyze", "--g", str(paths["--g"]), "--grid", str(paths["--grid"]),
            "--J", "2", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{flag}: {bad}: " in err[0] and reason in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_clip_tol_rejected(self, inputs, tmp_path, capsys, tol):
        out = tmp_path / "x.json"
        code = main([
            "analyze", "--g", str(inputs["g"]), "--grid", str(inputs["grid"]),
            "--J", "2", f"--clip-tol={tol}", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--clip-tol" in err[0]
        assert not out.exists()

    def test_data_with_byte_order_mark(self, inputs, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        save_family_csv(generate_dataset(study_params(n_families=10, family_size=4)), plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        reports = []
        for data in (plain, marked):
            out = tmp_path / f"{data.stem}.json"
            assert main(["analyze", "--data", str(data), "--design", "halfsib",
                         "--grid", str(inputs["grid"]), "--J", "2", "--out", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        assert reports[0]["eigenvalues"] == reports[1]["eigenvalues"]

    def test_data_with_blank_lines_and_crlf_prints_nothing(self, inputs, tmp_path):
        # np.loadtxt warns on stderr about each blank line it is given
        plain, data = tmp_path / "plain.csv", tmp_path / "families.csv"
        save_family_csv(generate_dataset(study_params(n_families=10, family_size=4)), plain)
        lines = plain.read_text().splitlines()
        data.write_bytes("\r\n".join(lines[:3] + ["", ""] + lines[3:] + ["", ""]).encode())
        env = dict(os.environ, PYTHONPATH=str(Path(genecon.__file__).parents[1]))
        run = subprocess.run(
            [sys.executable, "-m", "genecon.cli", "analyze", "--data", str(data),
             "--design", "halfsib", "--grid", str(inputs["grid"]), "--J", "2",
             "--out", str(tmp_path / "x.json")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (run.returncode, run.stderr) == (0, "")

    def test_unbalanced_csv_is_usage_error(self, inputs, tmp_path, capsys):
        data = tmp_path / "unbalanced.csv"
        header = "family,individual," + ",".join(f"t{i+1}" for i in range(6))
        row = ",".join(["0.0"] * 6)
        data.write_text(
            f"{header}\nF1,I1,{row}\nF1,I2,{row}\nF2,I1,{row}\nF2,I2,{row}\nF2,I3,{row}\n"
        )
        code = main([
            "analyze", "--data", str(data), "--design", "halfsib",
            "--grid", str(inputs["grid"]), "--J", "2", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert capsys.readouterr().err == (
            f"genecon analyze: --data: {data}: family 'F2' has 3 members, family 'F1' has 2\n"
        )

    def test_clip_tol_applies_to_data(self, inputs, tmp_path):
        data = tmp_path / "families.csv"
        save_family_csv(generate_dataset(study_params(n_families=40, family_size=5)), data)
        docs = []
        for tol in ("0", "0.3"):
            out = tmp_path / f"report_{tol}.json"
            assert main(["analyze", "--data", str(data), "--design", "halfsib",
                         "--grid", str(inputs["grid"]), "--J", "2", "--clip-tol", tol,
                         "--out", str(out)]) == 0
            docs.append(json.loads(out.read_text()))
        # the estimate's third eigenvalue lies between the two tolerances
        assert docs[0]["eigenvalues"][2] == pytest.approx(0.2894, abs=1e-4)
        assert docs[0]["clipped_indices"] == [3, 4, 5]
        assert docs[1]["eigenvalues"][2] == 0.0
        assert docs[1]["clipped_indices"] == [2, 3, 4, 5]
        assert docs[1]["eigenvalues"][:2] == docs[0]["eigenvalues"][:2]

    @pytest.mark.parametrize("measure", ["d1", "d2", "sparse"])
    def test_overflowing_grid_span_is_usage_error(self, tmp_path, capsys, measure):
        grid, g = identity_inputs(tmp_path, [-1e308, 0.0, 1e308])
        out, svg = tmp_path / "x.json", tmp_path / "x.svg"
        code = main(["analyze", "--g", str(g), "--grid", str(grid), "--J", "1",
                     "--measure", measure, "--out", str(out), "--svg", str(svg)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"--grid: {grid}: " in err[0] and "overflows" in err[0]
        assert not out.exists() and not svg.exists()

    @pytest.mark.parametrize("points", [[0.0, 1e-200, 2e-200], [0.0, 1.0]],
                             ids=["tiny-gaps", "two-points"])
    def test_measure_failure_names_flag(self, tmp_path, capsys, points):
        grid, g = identity_inputs(tmp_path, points)
        out = tmp_path / "x.json"
        code = main(["analyze", "--g", str(g), "--grid", str(grid), "--J", "1",
                     "--measure", "d2", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genecon analyze: --measure d2: ")
        assert not out.exists()

    def test_dry_run_writes_nothing(self, inputs, tmp_path):
        out = tmp_path / "never.json"
        code = main([
            "analyze", "--g", str(inputs["g"]), "--grid", str(inputs["grid"]),
            "--J", "2", "--out", str(out), "--dry-run",
        ])
        assert code == 0
        assert not out.exists()


class TestSweep:
    def test_emits_all_pairs(self, inputs, tmp_path):
        out_dir = tmp_path / "sweep"
        code = main([
            "sweep", "--g", str(inputs["g"]), "--grid", str(inputs["grid"]),
            "--out-dir", str(out_dir),
        ])
        assert code == 0
        reports = sorted(p.name for p in out_dir.glob("report_J*.json"))
        figures = sorted(p.name for p in out_dir.glob("figure_J*.svg"))
        assert reports == [f"report_J{j:02d}.json" for j in range(7)]
        assert figures == [f"figure_J{j:02d}.svg" for j in range(7)]

    def test_dry_run_creates_nothing(self, inputs, tmp_path):
        out_dir = tmp_path / "sweep"
        assert main(["sweep", "--g", str(inputs["g"]), "--grid", str(inputs["grid"]),
                     "--out-dir", str(out_dir), "--dry-run"]) == 0
        assert not out_dir.exists()

    def test_matches_single_analyze(self, tmp_path):
        # eigenvectors are formatted once per G and reused across J; nothing of
        # one J, measure or matrix may show in another's report or figure
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"points": list(TEMPERATURE_POINTS)}))
        g, data = tmp_path / "g.json", tmp_path / "families.csv"
        q, _ = np.linalg.qr(np.random.default_rng(8).standard_normal((6, 6)))
        entries = ((q * 0.6 ** np.arange(6)) @ q.T).ravel()
        g.write_text(json.dumps({"dim": 6, "entries": entries.tolist()}))
        save_family_csv(generate_dataset(study_params(n_families=12, family_size=5)), data)
        for source, measure in (("g", "d1"), ("g", "d2"), ("g", "sparse"), ("data", "d1")):
            common = [f"--{source}", str(g if source == "g" else data), "--grid", str(grid),
                      "--measure", measure, *(["--design", "halfsib"] if source == "data" else [])]
            out_dir = tmp_path / f"sweep-{source}-{measure}"
            assert main(["sweep", *common, "--out-dir", str(out_dir)]) == 0
            for j in range(7):
                out, svg = tmp_path / f"single{j}.json", tmp_path / f"single{j}.svg"
                assert main(["analyze", *common, "--J", str(j), "--out", str(out),
                             "--svg", str(svg)]) == 0
                assert (out_dir / f"report_J{j:02d}.json").read_bytes() == out.read_bytes()
                assert (out_dir / f"figure_J{j:02d}.svg").read_bytes() == svg.read_bytes()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf"])
    def test_non_finite_clip_tol_rejected(self, inputs, tmp_path, capsys, tol):
        out_dir = tmp_path / "sweep"
        code = main([
            "sweep", "--g", str(inputs["g"]), "--grid", str(inputs["grid"]),
            f"--clip-tol={tol}", "--out-dir", str(out_dir),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "--clip-tol" in err[0]
        assert not out_dir.exists()

    def test_bytes_independent_of_blas_threads(self, tmp_path):
        # a dense K = 12 G with a distinct spectrum, so LAPACK does real work
        k = 12
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        g = (q * 0.7 ** np.arange(k)) @ q.T
        (tmp_path / "g.json").write_text(json.dumps({"dim": k, "entries": g.ravel().tolist()}))
        (tmp_path / "grid.json").write_text(json.dumps({"points": list(range(k))}))
        env = dict(os.environ, PYTHONPATH=str(Path(genecon.__file__).parents[1]))
        outputs = []
        # unset is the CLI's own default of one thread
        for run, threads in enumerate(("1", "2", None)):
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            subprocess.run(
                [sys.executable, "-m", "genecon.cli", "sweep", "--g", "g.json",
                 "--grid", "grid.json", "--out-dir", f"out{run}"],
                cwd=tmp_path, env=env, check=True, timeout=120,
            )
            out_dir = tmp_path / f"out{run}"
            outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert len(outputs[0]) == 2 * (k + 1)
        assert outputs[0] == outputs[1] == outputs[2]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = """
import json, os, sys
import genecon
numpy_after_package = "numpy" in sys.modules
import genecon.cli
print(json.dumps({"numpy_after_package": numpy_after_package,
                  "environ": dict(os.environ), "modules": sorted(sys.modules)}))
"""


class TestImport:
    @pytest.mark.parametrize("user_value", [None, "3"], ids=["unset", "user-set"])
    def test_cli_import_defaults_blas_to_one_thread(self, user_value):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env["PYTHONPATH"] = str(Path(genecon.__file__).parents[1])
        if user_value is not None:
            env["OPENBLAS_NUM_THREADS"] = user_value
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                               capture_output=True, text=True, timeout=120)
        seen = json.loads(probe.stdout)
        assert seen["numpy_after_package"] is False
        assert {v: seen["environ"].get(v) for v in BLAS_VARS} == {
            **dict.fromkeys(BLAS_VARS, "1"), "OPENBLAS_NUM_THREADS": user_value or "1"}
        # what xml.sax.saxutils pulled in, which the CLI does not need
        unused = {"xml.sax", "urllib.request", "http.client", "ssl", "email"}
        assert unused.isdisjoint(seen["modules"])

    def test_every_export_is_its_submodule_object(self):
        assert len(set(genecon.__all__)) == len(genecon.__all__) == 48
        for name in genecon.__all__:
            value = getattr(genecon, name)
            assert value.__module__.startswith("genecon.")
            assert getattr(importlib.import_module(value.__module__), name) is value


class TestVersion:
    def test_package_version_matches_pyproject(self):
        text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            table = re.search(r"^\[project\]\s*$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
            version = re.search(r'^version\s*=\s*"([^"]+)"', table, re.M).group(1)
        else:
            version = tomllib.loads(text)["project"]["version"]
        assert genecon.__version__ == version


class TestSimulate:
    def test_success_and_aggregate_line(self, study_config, tmp_path, capsys):
        out = tmp_path / "summary.json"
        svg = tmp_path / "study.svg"
        code = main(["simulate", "--config", str(study_config),
                     "--out", str(out), "--svg", str(svg)])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert "negative-min-eigenvalue fraction" in line
        assert "simplest-response" in line
        doc = json.loads(out.read_text())
        assert doc["reps"] == 3
        assert doc["provenance"]["rng"].startswith("philox")
        assert '<metadata id="provenance">' in svg.read_text()

    def test_zero_reps_rejected(self, study_config, tmp_path, capsys):
        code = main(["simulate", "--config", str(study_config), "--reps", "0",
                     "--out", str(tmp_path / "s.json")])
        assert code == 2
        assert "--reps" in capsys.readouterr().err

    def test_overrides(self, study_config, tmp_path):
        out = tmp_path / "s.json"
        code = main(["simulate", "--config", str(study_config), "--reps", "2",
                     "--seed", "123", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["reps"] == 2
        assert doc["params"]["seed"] == 123

    def test_thread_count_does_not_change_bytes(self, study_config, tmp_path, monkeypatch):
        outs = []
        for threads in ("1", "4"):
            monkeypatch.setenv("GENECON_THREADS", threads)
            out = tmp_path / f"summary_{threads}.json"
            svg = tmp_path / f"study_{threads}.svg"
            assert main(["simulate", "--config", str(study_config),
                         "--out", str(out), "--svg", str(svg)]) == 0
            outs.append((out.read_bytes(), svg.read_bytes()))
        assert outs[0] == outs[1]

    def test_dry_run(self, study_config, tmp_path):
        out = tmp_path / "no.json"
        assert main(["simulate", "--config", str(study_config), "--out", str(out),
                     "--dry-run"]) == 0
        assert not out.exists()

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "bad.json" in capsys.readouterr().err

    def test_non_object_config(self, tmp_path, capsys):
        cfg = tmp_path / "number.json"
        cfg.write_text("3")
        out = tmp_path / "o.json"
        code = main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "expected a JSON object" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("families", 3.9),
        ("siblings", True),
        ("seed", 1.5),
        ("reps", True),
        ("null_dim", "3"),
        ("sigma2", [1]),
        ("sigma2", True),
        ("sigma2", "0.5"),
        ("mu", {"a": 1}),
        ("sigma2", float("nan")),
        ("mu", [float("inf")] + [0.0] * 5),
        ("design", " HALF_SIB "),
        ("design", "Full_Sib"),
    ])
    def test_non_integer_field_rejected(self, study_config, tmp_path, capsys, field, value):
        cfg = json.loads(study_config.read_text())
        cfg[field] = value
        study_config.write_text(json.dumps(cfg))
        out = tmp_path / "o.json"
        code = main(["simulate", "--config", str(study_config), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and repr(field) in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("e", {"dim": 3, "entries": np.eye(3).ravel().tolist()},
         "E is 3-dimensional, G is 6-dimensional"),
        ("families", 1, "need at least 2 families of 2 members, got 1 x 4"),
        ("sigma2", 10**400, "field 'sigma2' is out of range: int too large to convert to float"),
        ("design", ["half-sib"], "field 'design' must be one of ('half-sib', 'halfsib', "
                                 "'full-sib', 'fullsib'), got ['half-sib']"),
        ("measure", ["d1"], "field 'measure' must be one of ('d1', 'd2', 'sparse'), "
                            "got ['d1']"),
    ], ids=["e-3x3", "one-family", "sigma2-400-digits", "design-list", "measure-list"])
    def test_bad_model_field_is_named(self, study_config, tmp_path, capsys, field, value,
                                      message):
        cfg = json.loads(study_config.read_text())
        cfg[field] = value
        study_config.write_text(json.dumps(cfg))
        out = tmp_path / "o.json"
        assert main(["simulate", "--config", str(study_config), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"genecon simulate: --config: {study_config}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("design", ["half-sib", "full-sib"])
    def test_written_params_rebuild_the_study(self, design):
        p = replace(study_params(n_families=10, family_size=4, seed=7), design=design,
                    mu=np.linspace(-1.0, 1.0, 6))  # not the default mu
        cfg = {"grid": p.g.grid.to_payload(), **p.to_payload(),
               "reps": 3, "null_dim": 2, "measure": "d2"}
        args = argparse.Namespace(seed=None, reps=None, null_dim=None)
        q, reps, null_dim, kind, _ = _study_config(json.loads(json.dumps(cfg)), args)
        assert (reps, null_dim, kind) == (3, 2, "d2")
        for f in fields(p):
            a, b = getattr(p, f.name), getattr(q, f.name)
            if isinstance(a, GMatrix):
                assert a.matrix == b.matrix and a.grid == b.grid
            elif isinstance(a, np.ndarray):
                np.testing.assert_array_equal(a, b)
            else:
                assert a == b, f.name

    def test_integral_float_count_is_read_as_int(self):
        cfg = {**STUDY_CONFIG, "families": 20.0}
        args = argparse.Namespace(seed=None, reps=None, null_dim=None)
        params = _study_config(cfg, args)[0]
        assert params.n_families == 20 and type(params.n_families) is int

    @pytest.mark.parametrize("dry_run", [False, True])
    def test_non_psd_e_is_usage_error(self, study_config, tmp_path, capsys, dry_run):
        cfg = json.loads(study_config.read_text())
        cfg["e"] = {"dim": 6, "entries": np.diag([0.1] * 5 + [-0.1]).ravel().tolist()}
        study_config.write_text(json.dumps(cfg))
        out = tmp_path / "o.json"
        argv = ["simulate", "--config", str(study_config), "--out", str(out)]
        assert main(argv + ["--dry-run"] * dry_run) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "E is not positive semidefinite" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("seed, override", [(-1, False), (2**64, False), (-1, True)],
                             ids=["config-minus-1", "config-2**64", "flag-minus-1"])
    def test_seed_outside_64_bits_rejected(self, study_config, tmp_path, capsys, seed,
                                           override):
        out = tmp_path / "o.json"
        argv = ["simulate", "--config", str(study_config), "--out", str(out)]
        if override:
            argv += ["--seed", str(seed)]
        else:
            cfg = json.loads(study_config.read_text())
            cfg["seed"] = seed
            study_config.write_text(json.dumps(cfg))
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"seed must be in [0, 2**64), got {seed}" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [("seed", -1), ("reps", 0), ("null_dim", 9)])
    @pytest.mark.parametrize("by_flag", [True, False], ids=["flag", "config"])
    def test_bad_value_names_its_source(self, study_config, tmp_path, capsys, field, value,
                                        by_flag):
        out = tmp_path / "o.json"
        argv = ["simulate", "--config", str(study_config), "--out", str(out)]
        if by_flag:
            source = "--" + field.replace("_", "-")
            argv += [source, str(value)]
        else:
            source = f"--config: {study_config}: field {field!r}"
            cfg = json.loads(study_config.read_text())
            cfg[field] = value
            study_config.write_text(json.dumps(cfg))
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"genecon simulate: {source}: {field} must be ")
        assert err[0].endswith(f"got {value}")
        assert not out.exists()

    def test_measure_failure_is_usage_error(self, study_config, tmp_path, capsys):
        cfg = json.loads(study_config.read_text())
        cfg["grid"] = {"points": [i * 1e-200 for i in range(6)]}
        cfg["measure"] = "d2"
        study_config.write_text(json.dumps(cfg))
        out = tmp_path / "o.json"
        assert main(["simulate", "--config", str(study_config), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "measure d2: " in err[0]
        assert not out.exists()

    def test_study_too_large_to_allocate(self, study_config, tmp_path, capsys):
        # 10**15 replicates' 6x6 mean squares need 256 PiB, more than any x86-64
        # address space, so the allocation fails at once without touching memory
        out = tmp_path / "o.json"
        code = main(["simulate", "--config", str(study_config), "--reps", str(10**15),
                     "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("genecon simulate: ")
        assert not out.exists()

    def test_missing_field(self, tmp_path, capsys):
        cfg = tmp_path / "partial.json"
        cfg.write_text(json.dumps({"grid": {"points": [0.0, 1.0]}}))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "missing field" in capsys.readouterr().err

    def test_bad_thread_env(self, study_config, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("GENECON_THREADS", "many")
        code = main(["simulate", "--config", str(study_config),
                     "--out", str(tmp_path / "o.json")])
        assert code == 2
        assert "GENECON_THREADS" in capsys.readouterr().err


class TestNonFiniteReports:
    # a finite G large enough to overflow the response norms: the report would
    # hold NaN or Infinity, which is not JSON, so nothing is written
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_analyze(self, inputs, tmp_path, capsys):
        g = tmp_path / "huge.json"
        entries = (1e160 * np.eye(6) + 1e150).ravel().tolist()
        g.write_text(json.dumps({"dim": 6, "entries": entries}))
        out, svg = tmp_path / "x.json", tmp_path / "x.svg"
        code = main(["analyze", "--g", str(g), "--grid", str(inputs["grid"]), "--J", "3",
                     "--out", str(out), "--svg", str(svg)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("genecon analyze: report field vectors.")
        assert not out.exists() and not svg.exists()

    @pytest.mark.parametrize("command", ["analyze", "sweep"])
    def test_data_whose_mean_squares_overflow(self, inputs, tmp_path, capsys, command):
        # 12 finite records near 1e200: their cross products overflow, which
        # is worded as any other bad --data input, naming the flag and the path
        rows = ["family,individual," + ",".join(f"t{i + 1}" for i in range(6))]
        for f in range(4):
            for i in range(3):
                rows.append(f"F{f},I{i}," + ",".join(
                    repr((-1) ** (i + t) * (1.0 + f + 0.1 * i * t) * 1e200) for t in range(6)))
        data = tmp_path / "big.csv"
        data.write_text("\n".join(rows) + "\n")
        target = (["--J", "3", "--out", str(tmp_path / "x.json")] if command == "analyze"
                  else ["--out-dir", str(tmp_path / "sweep")])
        code = main([command, "--data", str(data), "--design", "half-sib",
                     "--grid", str(inputs["grid"]), *target])
        assert code == 2
        assert capsys.readouterr().err == (
            f"genecon {command}: --data: {data}: mean squares overflow: "
            "matrix entries must be finite\n")
        assert not (tmp_path / "x.json").exists() and not (tmp_path / "sweep").exists()

    def test_config_whose_mean_squares_overflow(self, study_config, tmp_path, capsys):
        # a finite mu of 1e200: the family means' deviations from their mean
        # carry roundoff at that scale, and their cross products overflow
        cfg = json.loads(study_config.read_text())
        cfg["mu"] = [1e200] * 6
        study_config.write_text(json.dumps(cfg))
        out, svg = tmp_path / "s.json", tmp_path / "s.svg"
        code = main(["simulate", "--config", str(study_config), "--out", str(out),
                     "--svg", str(svg)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == (f"genecon simulate: --config: {study_config}: mean squares "
                                "overflow: replicate 0: matrix entries must be finite\n")
        assert captured.out == ""
        assert not out.exists() and not svg.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_simulate(self, study_config, tmp_path, capsys):
        cfg = json.loads(study_config.read_text())
        cfg["g"] = {"dim": 6, "entries": (1e160 * np.eye(6)).ravel().tolist()}
        study_config.write_text(json.dumps(cfg))
        out, svg = tmp_path / "s.json", tmp_path / "s.svg"
        code = main(["simulate", "--config", str(study_config), "--out", str(out),
                     "--svg", str(svg)])
        assert code == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("genecon simulate: report field ")
        assert "which is not a JSON number" in err[0]
        assert captured.out == ""
        assert not out.exists() and not svg.exists()


@pytest.mark.parametrize("flag, corrupt, where", [
    pytest.param("--data", lambda b: b.replace(b"F1,I2", b"F1,I\xff", 1), ":3: ",
                 id="data-not-utf8"),
    pytest.param("--data", lambda b: b.replace(b"F1,I2", b"F1,I" + b"2" * 200_000, 1), ":3: ",
                 id="data-field-too-long"),
    pytest.param("--grid", lambda b: b[:1] + b"\xff" + b[1:], ": ", id="grid-not-utf8"),
    pytest.param("--g", lambda b: b[:1] + b"\xff" + b[1:], ": ", id="g-not-utf8"),
    pytest.param("--config", lambda b: b[:1] + b"\xff" + b[1:], ": ", id="config-not-utf8"),
])
def test_bad_input_bytes_name_flag_and_path(inputs, study_config, tmp_path, capsys, flag,
                                            corrupt, where):
    data = tmp_path / "families.csv"
    save_family_csv(generate_dataset(study_params(n_families=4, family_size=3)), data)
    good = {"--data": data, "--grid": inputs["grid"], "--g": inputs["g"],
            "--config": study_config}
    bad = tmp_path / "bad.input"
    bad.write_bytes(corrupt(good[flag].read_bytes()))
    paths = {**good, flag: bad}
    out = tmp_path / "o.json"
    if flag == "--config":
        argv = ["simulate", "--config", str(bad)]
    elif flag == "--data":
        argv = ["analyze", "--data", str(bad), "--design", "halfsib",
                "--grid", str(paths["--grid"]), "--J", "2"]
    else:
        argv = ["analyze", "--g", str(paths["--g"]), "--grid", str(paths["--grid"]), "--J", "2"]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{flag}: {bad}{where}" in err[0]
    assert err[0].count(str(bad)) == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--grid", "--g", "--data", "--config"])
def test_missing_input_is_named_as_typed(inputs, tmp_path, capsys, flag):
    absent = "./absent.input"
    if flag == "--config":
        command, argv = "simulate", ["simulate", "--config", absent]
    else:
        paths = {"--g": str(inputs["g"]), "--grid": str(inputs["grid"]), flag: absent}
        source = ["--data", paths["--data"], "--design", "halfsib"] if flag == "--data" else [
            "--g", paths["--g"]]
        command, argv = "analyze", ["analyze", *source, "--grid", paths["--grid"], "--J", "2"]
    assert main([*argv, "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == f"genecon {command}: {flag}: no such file: {absent}\n"


@pytest.mark.parametrize("kind", ["directory", "fifo"])
@pytest.mark.parametrize("flag", ["--grid", "--g"])
def test_input_that_is_not_a_regular_file_is_named(inputs, tmp_path, capsys, kind, flag):
    # a FIFO is refused before it is opened: reading one with no writer would block
    odd = tmp_path / kind
    odd.mkdir() if kind == "directory" else os.mkfifo(odd)
    paths = {"--g": str(inputs["g"]), "--grid": str(inputs["grid"]), flag: str(odd)}
    argv = ["analyze", "--g", paths["--g"], "--grid", paths["--grid"], "--J", "2"]
    assert main([*argv, "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == f"genecon analyze: {flag}: not a regular file: {odd}\n"
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("body, reason", [
    ("family,ind,t1,t2,t3,t4,t5,t6\n",
     ": expected header family,individual,t1,t2,t3,t4,t5,t6, got family,ind,t1,t2,t3,t4,t5,t6"),
    ("family,individual,t1,t2,t3,t4,t5,t6\nF1,I1,0,0,0,0,0,0\nF1,I2,0,nan,0,0,0,0\n",
     ":3: t2 must be finite, got 'nan'"),
    ("family,individual,t1,t2,t3,t4,t5,t6\nF1,I1,0,0,0,0,0,0\nF1,I2,0,0,0,0,0,0\n",
     ": need at least 2 families of 2 members, got 1 x 2"),
    # a quoted line break in the header is echoed escaped, so the message stays one line
    ('"fam\nily",individual,t1,t2,t3,t4,t5,t6\n',
     ": expected header family,individual,t1,t2,t3,t4,t5,t6, got fam\\nily,individual,t1,t2,t3,"
     "t4,t5,t6"),
], ids=["header", "non-finite", "one-family", "quoted-newline-header"])
def test_data_errors_name_the_path_once(inputs, tmp_path, capsys, body, reason):
    data = f"{tmp_path}/./bad.csv"  # named as typed
    (tmp_path / "bad.csv").write_text(body)
    assert main(["analyze", "--data", data, "--design", "halfsib", "--grid", str(inputs["grid"]),
                 "--J", "2", "--out", str(tmp_path / "o.json")]) == 2
    assert capsys.readouterr().err == f"genecon analyze: --data: {data}{reason}\n"


@pytest.mark.parametrize("flag", ["--grid", "--g", "--config"])
def test_invalid_json_is_worded_alike(inputs, study_config, tmp_path, capsys, flag):
    (tmp_path / "bad.json").write_text("{bad")
    bad = f"{tmp_path}/./bad.json"  # the message names the path as typed
    out = tmp_path / "o.json"
    if flag == "--config":
        command, argv = "simulate", ["simulate", "--config", bad]
    else:
        paths = {"--g": str(inputs["g"]), "--grid": str(inputs["grid"]), flag: bad}
        command, argv = "analyze", ["analyze", "--g", paths["--g"], "--grid", paths["--grid"],
                                    "--J", "2"]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"genecon {command}: {flag}: {bad}: invalid JSON: ")
    assert not out.exists()


NESTED = [[11.0, 17.0], [23.0, 29.0], [35.0, 40.0]]


@pytest.mark.parametrize("flag, field, payload", [
    ("--grid", "points", {"points": NESTED}),
    ("--config", "points", {**STUDY_CONFIG, "grid": {"points": NESTED}}),
    ("--config", "mu", {**STUDY_CONFIG, "mu": [[0.0] * 3, [0.0] * 3]}),
    ("--g", "entries", {"dim": 6, "entries": np.diag(GROWTH_EIGENVALUES).tolist()}),
], ids=["grid-points", "config-points", "config-mu", "g-entries"])
def test_nested_lists_are_rejected(inputs, tmp_path, capsys, flag, field, payload):
    # points, entries and mu are flat lists; a nested one is not read as its flattening
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    out, svg = tmp_path / "o.json", tmp_path / "o.svg"
    if flag == "--config":
        argv = ["simulate", "--config", str(bad)]
    else:
        paths = {"--g": str(inputs["g"]), "--grid": str(inputs["grid"]), flag: str(bad)}
        argv = ["analyze", "--g", paths["--g"], "--grid", paths["--grid"], "--J", "2"]
    assert main([*argv, "--out", str(out), "--svg", str(svg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{flag}: {bad}: " in err[0] and field in err[0]
    assert not out.exists() and not svg.exists()


@pytest.mark.parametrize("flag, field, text", [
    ("--grid", "points", '{"points": ' + "[" * 900 + "]" * 900 + "}"),
    ("--grid", "points", '{"points": [11, 17, 23, 29, 35, '
                         + json.dumps({"a": list(range(500))}) + "]}"),
    ("--g", "entries", json.dumps({"dim": 6, "entries": ["x" * 5000] * 36})),
    ("--config", "'families'", json.dumps({**STUDY_CONFIG, "families": list(range(1000))})),
    ("--config", "'sigma2'", json.dumps({**STUDY_CONFIG, "sigma2": {"a": "x" * 5000}})),
    ("--config", "'measure'", json.dumps({**STUDY_CONFIG, "measure": "d" * 5000})),
    ("--config", "design", json.dumps({**STUDY_CONFIG, "design": "half" * 2000})),
    ("--config", "'seed'", json.dumps({**STUDY_CONFIG, "seed": 10**400})),
    ("--config", "'null_dim'", json.dumps({**STUDY_CONFIG, "null_dim": 10**400})),
    ("--g", "dim*dim", json.dumps({"dim": 10**400, "entries": IDENTITY6})),
    ("--config", "unknown key", json.dumps({**STUDY_CONFIG, "m" * 5000: 1})),
], ids=["points-900-deep", "long-last-point", "long-entry", "list-families", "dict-sigma2",
        "long-measure", "long-design", "400-digit-seed", "400-digit-null-dim", "400-digit-dim",
        "long-unknown-key"])
def test_rejected_value_is_echoed_briefly(inputs, tmp_path, monkeypatch, capsys, flag, field,
                                          text):
    # a deep or long value is echoed shortened, so its one line stays readable
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text(text)
    if flag == "--config":
        argv = ["simulate", "--config", "bad.json"]
    else:
        paths = {"--g": str(inputs["g"]), "--grid": str(inputs["grid"]), flag: "bad.json"}
        argv = ["analyze", "--g", paths["--g"], "--grid", paths["--grid"], "--J", "2"]
    assert main([*argv, "--out", "o.json"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0]) < 200
    assert err[0].startswith(f"genecon {argv[0]}: {flag}: bad.json: ") and field in err[0]
    assert not Path("o.json").exists()


def test_rejected_j_is_echoed_briefly(inputs, tmp_path, capsys):
    out = tmp_path / "o.json"
    assert main(["analyze", "--g", str(inputs["g"]), "--grid", str(inputs["grid"]),
                 "--J", str(10**500), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0]) < 200
    assert err[0].startswith("genecon analyze: --J must be in [0, 6], got 1000")
    assert not out.exists()


@pytest.mark.parametrize("flag, text, key", [
    ("--grid", json.dumps({**GRID_PAYLOAD, "pionts": [1.0]}), "'pionts'"),
    ("--g", json.dumps({**G_PAYLOAD, "dims": 6}), "'dims'"),
    ("--g", json.dumps({"dims": 6, "entries": IDENTITY6}), "'dims'"),
    ("--config", json.dumps({**STUDY_CONFIG, "measur": "d2"}), "'measur'"),
    ("--config", json.dumps({**STUDY_CONFIG, "grid": {**GRID_PAYLOAD, "pionts": []}}),
     "'pionts'"),
    ("--config", json.dumps({**STUDY_CONFIG, "e": {**STUDY_CONFIG["e"], "dims": 6}}), "'dims'"),
], ids=["grid", "matrix", "matrix-misspelt-dim", "config", "config-grid", "config-matrix"])
def test_unknown_key_is_named(inputs, tmp_path, capsys, flag, text, key):
    # a misspelt or extra key would otherwise be dropped without a word
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "o.json"
    if flag == "--config":
        argv = ["simulate", "--config", str(bad)]
    else:
        paths = {"--g": str(inputs["g"]), "--grid": str(inputs["grid"]), flag: str(bad)}
        argv = ["analyze", "--g", paths["--g"], "--grid", paths["--grid"], "--J", "2"]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"genecon {argv[0]}: {flag}: {bad}: ")
    assert err[0].endswith(f"unknown key {key}")
    assert not out.exists()


_HEADER = "family,individual,t1,t2,t3,t4,t5,t6"
_ROW = ",0,0,0,0,0,0\n"


@pytest.mark.parametrize("body, where", [
    (f"{_HEADER}\nF1,I1,{'x' * 5000},0,0,0,0,0\n", ":2: could not convert string to float: "),
    (f"{_HEADER}\n{'F' * 3000},I1{_ROW}{'F' * 3000},I1{_ROW}", ":3: duplicate record for family "),
    (f"family,individual,t1,t2,t3,t4,t5,{'t' * 5000}\n", f": expected header {_HEADER}, got "),
    (f"{_HEADER}\nF1,I1{_ROW}F1,I2,0,{' ' * 1500}nan{' ' * 1500},0,0,0,0\n",
     ":3: t2 must be finite, got "),
    (f"{_HEADER}\nF1,I1{_ROW}F1,I2{_ROW}" + "".join(f"{'F' * 3000},I{i}{_ROW}" for i in range(3)),
     ": family '"),
], ids=["long-trait", "long-duplicate-id", "long-header-name", "padded-nan", "long-family-id"])
def test_csv_field_is_echoed_briefly(inputs, tmp_path, monkeypatch, capsys, body, where):
    monkeypatch.chdir(tmp_path)
    Path("bad.csv").write_text(body)
    assert main(["analyze", "--data", "bad.csv", "--design", "halfsib", "--grid",
                 str(inputs["grid"]), "--J", "2", "--out", "o.json"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and len(err[0]) < 200
    assert err[0].startswith(f"genecon analyze: --data: bad.csv{where}")
    assert not Path("o.json").exists()


@pytest.mark.parametrize("value, code, message", [
    (None, 0, None), ("  ", 0, None), ("0", 0, None), ("2", 0, None),
    ("many", 2, "GENECON_THREADS must be an integer, got 'many'"),
    ("-3", 2, "GENECON_THREADS must be nonnegative, got -3"),
    ("7" * 5000, 2, "GENECON_THREADS must be an integer, got '777"),
    ("-" + "7" * 4000, 2, "GENECON_THREADS must be nonnegative, got -777"),
], ids=["unset", "blank", "zero", "two", "word", "negative", "5000-digits", "long-negative"])
def test_thread_env_is_checked_once(inputs, tmp_path, monkeypatch, capsys, value, code, message):
    if value is None:
        monkeypatch.delenv("GENECON_THREADS", raising=False)
    else:
        monkeypatch.setenv("GENECON_THREADS", value)
    out = tmp_path / "o.json"
    assert main(["analyze", "--g", str(inputs["g"]), "--grid", str(inputs["grid"]), "--J", "2",
                 "--out", str(out)]) == code
    err = capsys.readouterr().err.splitlines()
    if message is None:
        assert err == [] and out.exists()
    else:
        assert len(err) == 1 and len(err[0]) < 200
        assert err[0].startswith(f"genecon analyze: {message}")
        assert not out.exists()


@pytest.mark.parametrize("command, flag, target", [
    ("analyze", "--out", "missing/r.json"),
    ("analyze", "--out", "taken"),
    ("analyze", "--out", "link.json"),
    ("analyze", "--out", "loop.json"),
    ("analyze", "--out", "pipe.json"),
    ("analyze", "--svg", "missing/f.svg"),
    ("analyze", "--svg", "taken"),
    ("simulate", "--svg", "missing/f.svg"),
    ("simulate", "--svg", "pipe.json"),
    ("sweep", "--out-dir", "taken/figure_J03.svg"),
], ids=["no-parent", "directory", "symlink", "symlink-loop", "fifo", "svg-no-parent",
        "svg-directory", "simulate-svg-no-parent", "simulate-svg-fifo", "sweep-figure-directory"])
def test_failed_write_names_its_target(inputs, study_config, tmp_path, capsys, command, flag,
                                       target):
    # every output is checked before the first write, so no report is left
    # behind; an existing output that is not a regular file is never replaced
    (tmp_path / "taken").mkdir()
    (tmp_path / "kept.json").write_text("kept")
    (tmp_path / "link.json").symlink_to("kept.json")
    (tmp_path / "loop.json").symlink_to("loop.json")
    os.mkfifo(tmp_path / "pipe.json")
    bad = tmp_path / target
    outputs = {"--out": tmp_path / "r.json", "--svg": tmp_path / "f.svg", flag: bad}
    if command == "sweep":
        bad.mkdir()
        argv = ["--g", str(inputs["g"]), "--grid", str(inputs["grid"]),
                "--out-dir", str(bad.parent)]
    else:
        source = (["--config", str(study_config)] if command == "simulate" else
                  ["--g", str(inputs["g"]), "--grid", str(inputs["grid"]), "--J", "2"])
        argv = [*source, "--out", str(outputs["--out"]), "--svg", str(outputs["--svg"])]
    before = sorted(tmp_path.iterdir()), sorted((tmp_path / "taken").iterdir())
    assert main([command, *argv]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and repr(str(bad)) in err[0] and ".tmp" not in err[0]
    assert (sorted(tmp_path.iterdir()), sorted((tmp_path / "taken").iterdir())) == before
    assert (tmp_path / "link.json").is_symlink() and (tmp_path / "kept.json").read_text() == "kept"
    assert stat.S_ISFIFO((tmp_path / "pipe.json").lstat().st_mode)


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("svg", ["r.json", "./r.json", "sub/../r.json"])
def test_report_and_figure_naming_one_file(inputs, study_config, monkeypatch, capsys, command,
                                           svg):
    # rejected before any work, so nothing is written
    monkeypatch.chdir(inputs["dir"])
    (inputs["dir"] / "sub").mkdir()
    source = (["--config", "study.json"] if command == "simulate" else
              ["--g", "g.json", "--grid", "grid.json", "--J", "2"])
    assert main([command, *source, "--out", "r.json", "--svg", svg]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"genecon {command}: --out r.json and --svg {svg} name the same file"]
    assert not Path("r.json").exists()


def test_sweep_into_an_empty_directory_name(inputs, monkeypatch, capsys):
    # fails like `--out ""`: exit 1, one line naming the path as given, no file written
    monkeypatch.chdir(inputs["dir"])
    before = sorted(inputs["dir"].iterdir())
    assert main(["sweep", "--g", "g.json", "--grid", "grid.json", "--out-dir", ""]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("genecon sweep: ") and err[0].endswith(": ''")
    assert sorted(inputs["dir"].iterdir()) == before


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("outputs, named", [
    (["--out", "."], "."),
    (["--out", ""], ""),
    (["--out", "o.json", "--svg", ""], ""),
], ids=["out-dot", "out-empty", "svg-empty"])
def test_output_path_without_a_file_name(inputs, study_config, monkeypatch, capsys, command,
                                         outputs, named):
    # fails like any unwritable output: exit 1, one line naming the path as given
    monkeypatch.chdir(inputs["dir"])
    source = (["--config", "study.json"] if command == "simulate" else
              ["--g", "g.json", "--grid", "grid.json", "--J", "2"])
    assert main([command, *source, *outputs]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"genecon {command}: ")
    assert err[0].endswith(f": {named!r}")


@pytest.mark.parametrize("argv, prefix, reason", [
    (["analyze", "--g", "g.json", "--grid", "grid.json", "--J", "2", "--clip-tol", "-inf",
      "--out", "x.json"], "genecon analyze: ", "--clip-tol"),
    (["simulate", "--config", "study.json"], "genecon simulate: ", "--out"),
    (["analyze", "--g", "g.json", "--grid", "grid.json", "--J", "two", "--out", "x.json"],
     "genecon analyze: ", "'two'"),
    (["frobnicate"], "genecon: ", "'frobnicate'"),
    (["analyze", "--g", "g.json", "--grid", "", "--J", "2", "--out", "x.json"],
     "genecon analyze: ", "missing required input --grid"),
], ids=["clip-tol-minus-inf", "missing-out", "non-integer-J", "unknown-subcommand",
        "empty-grid"])
def test_usage_error_is_one_line(argv, prefix, reason, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix) and reason in err[0]
    assert captured.out == ""


# values that are wrong wherever they stand in a grid, matrix or study config:
# a 2-point grid fits no 6-trait input, and no field takes a string or a list of lists
BAD_VALUES = [None, True, "x", "a\nb", {}, [[]], [0.0, 1.0], float("nan"), float("inf"),
              json.loads("[" * 40 + "0" + "]" * 40)]
OPTIONAL_FIELDS = {("mu",), ("measure",)}
GOOD_CSV = "family,individual,t1,t2,t3,t4,t5,t6\n" + "".join(
    f"F{j},I{i},{i},{j},0.5,-1,{i * j},2e-3\n" for j in (1, 2, 3) for i in (1, 2, 3))


def _key_paths(doc, prefix=()):
    """The path of every field of a JSON object, nested objects included."""
    for key, value in doc.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    """A copy of ``doc`` with the field at ``path`` set to ``value``, or dropped if ``...``."""
    copy = dict(doc)
    if len(path) > 1:
        copy[path[0]] = _replaced(doc[path[0]], path[1:], value)
    elif value is ...:
        del copy[path[0]]
    else:
        copy[path[0]] = value
    return copy


def _misspelt(doc, path):
    """A copy of ``doc`` with the key at ``path`` missing its last letter."""
    copy = dict(doc)
    if len(path) > 1:
        copy[path[0]] = _misspelt(doc[path[0]], path[1:])
    else:
        copy[path[0][:-1]] = copy.pop(path[0])
    return copy


@st.composite
def malformed_json(draw, doc):
    """A grid, matrix or config file that every reader must reject."""
    raw = json.dumps(doc).encode()
    kind = draw(st.sampled_from(["field", "missing", "misspelt", "truncated", "not-utf8",
                                 "not-an-object", "too-deep"]))
    if kind == "field":
        path = draw(st.sampled_from(list(_key_paths(doc))))
        return json.dumps(_replaced(doc, path, draw(st.sampled_from(BAD_VALUES)))).encode()
    if kind == "missing":
        path = draw(st.sampled_from([p for p in _key_paths(doc) if p not in OPTIONAL_FIELDS]))
        return json.dumps(_replaced(doc, path, ...)).encode()
    if kind == "misspelt":  # an optional key too, which was once dropped without a word
        return json.dumps(_misspelt(doc, draw(st.sampled_from(list(_key_paths(doc)))))).encode()
    if kind == "truncated":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    if kind == "not-utf8":
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + b"\xff" + raw[at:]
    if kind == "not-an-object":
        return json.dumps(draw(st.sampled_from([None, [], 1, "x", [doc]]))).encode()
    return b"[" * 100_000


@st.composite
def malformed_csv(draw):
    """A family CSV of 3 families of 3 members that the reader must reject."""
    rows = [line.split(",") for line in GOOD_CSV.splitlines()]
    kind = draw(st.sampled_from(["header", "value", "duplicate-id", "field-dropped",
                                 "field-added", "record-dropped", "record-repeated",
                                 "one-family", "no-records", "empty", "not-utf8"]))
    r = draw(st.integers(1, len(rows) - 1))
    if kind == "header":
        rows[0][draw(st.integers(0, 7))] = draw(st.sampled_from(["x", "", "T1", '"fam\nily"']))
    elif kind == "value":
        rows[r][draw(st.integers(2, 7))] = draw(st.sampled_from(
            ["x", "", "nan", "-inf", "1e999", "1 2", "--1", "0x10", "1,5e3"]))
    elif kind == "duplicate-id":  # a member named as another member of its family
        rows[r][1] = f"I{(int(rows[r][1][1:]) % 3) + 1}"
    elif kind == "field-dropped":
        del rows[r][draw(st.integers(0, 7))]
    elif kind == "field-added":
        rows[r].insert(draw(st.integers(0, 8)), "0")
    elif kind == "record-dropped":
        del rows[r]
    elif kind == "record-repeated":
        rows.append(rows[r])
    elif kind == "one-family":
        rows = rows[:4]
    elif kind == "no-records":
        rows = rows[:1]
    raw = "".join(",".join(row) + "\n" for row in rows).encode()
    if kind == "empty":
        return b""
    if kind == "not-utf8":
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + b"\xff" + raw[at:]
    return raw


@pytest.mark.parametrize("flag, files", [
    ("--grid", malformed_json(GRID_PAYLOAD)),
    ("--g", malformed_json(G_PAYLOAD)),
    ("--config", malformed_json(STUDY_CONFIG)),
    ("--data", malformed_csv()),
], ids=["grid", "g", "config", "data"])
@settings(max_examples=80)
@given(data=st.data())
def test_malformed_input_is_one_line_and_writes_nothing(tmp_path_factory, flag, files, data):
    # exit 2, one line on stderr (no line break inside it) and no output file
    folder = tmp_path_factory.mktemp("malformed")
    bad = folder / "bad.input"
    bad.write_bytes(data.draw(files, label="file"))
    good = {"--grid": folder / "grid.json", "--g": folder / "g.json"}
    good["--grid"].write_text(json.dumps(GRID_PAYLOAD))
    good["--g"].write_text(json.dumps(G_PAYLOAD))
    paths = {**good, flag: bad}
    out, svg = folder / "out.json", folder / "out.svg"
    if flag == "--config":
        argv = ["simulate", "--config", str(bad)]
    elif flag == "--data":
        argv = ["analyze", "--data", str(bad), "--design", "halfsib",
                "--grid", str(paths["--grid"]), "--J", "2"]
    else:
        argv = ["analyze", "--g", str(paths["--g"]), "--grid", str(paths["--grid"]), "--J", "2"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main([*argv, "--out", str(out), "--svg", str(svg)]) == 2
    message = err.getvalue()
    assert message.endswith("\n") and message.count("\n") == 1 and "\r" not in message
    assert not out.exists() and not svg.exists()
