"""Run the full J-sweep on both reference covariance surrogates.

Materializes the reference grid/matrix JSON inputs, then emits a report and
figure for every model-space dimension J (0..6) of each data set:

    python scripts/run_reference_analysis.py --out-dir results/analysis
"""

import argparse
import json
import sys
from pathlib import Path

from genecon.cli import main as genecon_main
from genecon.reference import (
    GROWTH_EIGENVALUES,
    HEIGHT_EIGENVALUES,
    age_grid,
    surrogate_g,
    temperature_grid,
)

DATASETS = {
    "growth_rate": surrogate_g(GROWTH_EIGENVALUES, temperature_grid()),
    "height": surrogate_g(HEIGHT_EIGENVALUES, age_grid()),
}


def write_inputs(out_dir: Path) -> dict[str, tuple[Path, Path]]:
    inputs = out_dir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, g in DATASETS.items():
        paths[name] = (inputs / f"{name}_g.json", inputs / f"{name}_grid.json")
        for path, payload in zip(paths[name], (g.matrix.to_payload(), g.grid.to_payload())):
            path.write_text(json.dumps(payload, indent=2) + "\n")
    return paths


def run(out_dir: Path) -> int:
    for name, (g_path, grid_path) in write_inputs(out_dir).items():
        target = out_dir / name
        code = genecon_main([
            "sweep",
            "--g", str(g_path),
            "--grid", str(grid_path),
            "--measure", "d1",
            "--out-dir", str(target),
        ])
        if code != 0:
            return code
        print(f"{name}: wrote {len(list(target.glob('report_J*.json')))} report/figure pairs "
              f"to {target}")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("results/analysis"))
    args = parser.parse_args()
    sys.exit(run(args.out_dir))
