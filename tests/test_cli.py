import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import genecon

from genecon.cli import main
from genecon.reference import (
    GROWTH_EIGENVALUES,
    SURROGATE_ENV_VARIANCE,
    SURROGATE_NOISE_VARIANCE,
    TEMPERATURE_POINTS,
)

IDENTITY6 = np.eye(6).ravel().tolist()


@pytest.fixture
def inputs(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"points": list(TEMPERATURE_POINTS)}))
    g = tmp_path / "g.json"
    entries = np.diag(GROWTH_EIGENVALUES).ravel()
    g.write_text(json.dumps({"dim": 6, "entries": list(entries)}))
    return {"grid": grid, "g": g, "dir": tmp_path}


@pytest.fixture
def study_config(tmp_path, inputs):
    cfg = {
        "grid": {"points": list(TEMPERATURE_POINTS)},
        "g": {"dim": 6, "entries": list(np.diag(GROWTH_EIGENVALUES).ravel())},
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
    path = tmp_path / "study.json"
    path.write_text(json.dumps(cfg))
    return path


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
        assert "unbalanced.csv" in capsys.readouterr().err

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

    def test_matches_single_analyze(self, inputs, tmp_path):
        out_dir = tmp_path / "sweep"
        main(["sweep", "--g", str(inputs["g"]), "--grid", str(inputs["grid"]),
              "--out-dir", str(out_dir)])
        for j in (0, 6):
            single_out = tmp_path / f"single{j}.json"
            single_svg = tmp_path / f"single{j}.svg"
            main(["analyze", "--g", str(inputs["g"]), "--grid", str(inputs["grid"]),
                  "--J", str(j), "--out", str(single_out), "--svg", str(single_svg)])
            assert (out_dir / f"report_J{j:02d}.json").read_bytes() == single_out.read_bytes()
            assert (out_dir / f"figure_J{j:02d}.svg").read_bytes() == single_svg.read_bytes()

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
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            subprocess.run(
                [sys.executable, "-m", "genecon.cli", "sweep", "--g", "g.json",
                 "--grid", "grid.json", "--out-dir", f"out{threads}"],
                cwd=tmp_path, env=env, check=True, timeout=120,
            )
            out_dir = tmp_path / f"out{threads}"
            outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert len(outputs[0]) == 2 * (k + 1)
        assert outputs[0] == outputs[1]


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


@pytest.mark.parametrize("argv, prefix, reason", [
    (["analyze", "--g", "g.json", "--grid", "grid.json", "--J", "2", "--clip-tol", "-inf",
      "--out", "x.json"], "genecon analyze: ", "--clip-tol"),
    (["simulate", "--config", "study.json"], "genecon simulate: ", "--out"),
    (["analyze", "--g", "g.json", "--grid", "grid.json", "--J", "two", "--out", "x.json"],
     "genecon analyze: ", "'two'"),
    (["frobnicate"], "genecon: ", "'frobnicate'"),
], ids=["clip-tol-minus-inf", "missing-out", "non-integer-J", "unknown-subcommand"])
def test_usage_error_is_one_line(argv, prefix, reason, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix) and reason in err[0]
    assert captured.out == ""
