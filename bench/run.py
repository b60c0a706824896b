"""genecon benchmark: times the CLI end to end and, in a traced pass, per module.

    python3 bench/run.py --workload study_ref --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all       # every workload, one block each

Each invocation of the workload runs in a fresh interpreter (bench/worker.py)
with GENECON_THREADS unset, as a user's CLI run would. Invocations repeat
until ``--seconds`` have passed. The first invocation that completes has its
outputs checked against numpy oracles (bench/workloads.py); every other one
must reproduce its output bytes exactly.

With ``--trace 0`` the result reports the end-to-end metrics: medians over
invocations of the CLI's wall and CPU time, the set-up time from a fresh
interpreter to ``import genecon.cli`` done, and the peak resident memory of
the invocation's process. With ``--trace 1`` invocations alternate between
untraced and traced (bench/tracer.py), and the result reports, for the traced
invocation with the median wall time, the calls and self time of every traced
function, the computed counts, the part of its wall time no span covers, and
the tracing overhead (median traced minus median untraced wall time).

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A failed invocation (nonzero exit or failed check) counts in ``failed``;
failed / attempted is the failure fraction.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from tracer import COUNTER_UNITS, FUNCTIONS
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_ROOT = ROOT / ".bench_work"

MIN_INVOCATIONS = 2     # byte-identity needs two
SETUP_SAMPLES = 9       # import-only interpreters are added up to this many
INVOCATION_TIMEOUT_S = 120
# the default thread policy, and bytecode caching on as in an installed package
WORKER_ENV = {
    k: v for k, v in os.environ.items() if k not in ("GENECON_THREADS", "PYTHONDONTWRITEBYTECODE")
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **{f"{f}.{k}": u for f in FUNCTIONS for k, u in (("calls", "count"), ("self_s", "s"))},
    **COUNTER_UNITS,
    "trace.wall_s": "s",
    "trace.uncovered_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    return int(100 * (n - 10) // n), sorted(values)[n - 11]


def _digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        linalg = {"blas": deps.get("blas"), "lapack": deps.get("lapack")}
    except (TypeError, KeyError):  # numpy < 1.26 only prints its configuration
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            np.show_config()
        linalg = {"show_config": buf.getvalue()}
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "genecon").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **linalg,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": src.hexdigest(),
        "GENECON_THREADS": WORKER_ENV.get("GENECON_THREADS"),
    }


def spawn(work: Path, calls: list[list[str]], trace: bool) -> dict:
    """Run one worker interpreter in ``work``; its sample, or a dict with an "error"."""
    spec = json.dumps({"calls": calls, "trace": trace})
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), spec], cwd=work, env=WORKER_ENV,
            capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {INVOCATION_TIMEOUT_S} s"}
    if proc.returncode != 0:
        last = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"worker exited {proc.returncode}: {last}"}
    sample = json.loads(proc.stdout.splitlines()[-1])
    sample["setup_s"] = sample["imported"] - start
    if sample["rc"] != 0:
        sample["error"] = f"genecon exited {sample['rc']}: {proc.stderr.strip()}"
    return sample


def check(workload, out: Path, ctx: dict) -> list[str]:
    """The workload's failed output checks; output it cannot read counts as failed."""
    try:
        return workload.check(out, ctx)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        return [f"malformed output: {exc!r}"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    workload = WORKLOADS[name]
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    ctx = workload.prepare(inputs, np.random.default_rng(seed))
    warm = spawn(work, [], False)  # untimed; writes the bytecode cache
    if "error" in warm:
        raise BenchError(f"cannot import genecon.cli from {ROOT / 'src'}: {warm['error']}")

    samples, failures, setup_s = [], [], []
    checked: dict[str, list[str]] = {}  # output digest -> failed checks
    reference = None
    deadline = time.monotonic() + seconds
    while True:
        is_traced = trace and len(samples) % 2 == 1
        out = f"out/{len(samples):04d}"
        (work / out).mkdir(parents=True)
        start = time.monotonic()
        sample = spawn(work, workload.calls(out), is_traced)
        duration = time.monotonic() - start
        sample["traced"] = is_traced
        if "error" not in sample:
            setup_s.append(sample["setup_s"])
            digest = _digest(work / out)
            if digest not in checked:
                checked[digest] = check(workload, work / out, ctx)
            reference = reference or digest
            if checked[digest]:
                sample["error"] = "; ".join(checked[digest][:3])
            elif digest != reference:
                sample["error"] = "output bytes differ from the first invocation"
        shutil.rmtree(work / out, ignore_errors=True)
        samples.append(sample)
        if "error" in sample:
            failures.append(sample["error"])
        if len(samples) >= MIN_INVOCATIONS and time.monotonic() + duration > deadline:
            break

    while len(setup_s) < SETUP_SAMPLES:
        sample = spawn(work, [], False)
        if "error" in sample:
            raise BenchError(f"import-only interpreter failed: {sample['error']}")
        setup_s.append(sample["setup_s"])

    timed = [s for s in samples if s.get("rc") == 0]
    plain = [s for s in timed if not s["traced"]]
    traced = [s for s in timed if s["traced"]]
    if not plain or (trace and not traced):
        raise BenchError(f"{name}: no invocation completed: {failures[:3]}")
    dists = {
        "wall_s": [s["wall_s"] for s in plain],
        "cpu_s": [s["cpu_s"] for s in plain],
        "setup_s": setup_s,
        "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
    }
    if trace:
        metrics = _layer_metrics(traced, dists["wall_s"])
        units = PER_LAYER
    else:
        metrics = {k: statistics.median(v) for k, v in dists.items()}
        units = END_TO_END
    return {
        "workload": name,
        "seed": seed,
        "attempted": len(samples),
        "failed": len(failures),
        "failures": failures,
        "dists": dists,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "environment": environment(),
    }


def _layer_metrics(traced: list[dict], untraced_walls: list[float]) -> dict:
    walls = [s["wall_s"] for s in traced]
    median = sorted(traced, key=lambda s: s["wall_s"])[(len(traced) - 1) // 2]
    spans = median["trace"]
    metrics = {}
    for f in FUNCTIONS:
        metrics[f"{f}.calls"] = spans["calls"][f]
        metrics[f"{f}.self_s"] = spans["self_s"][f]
    metrics.update(spans["counts"])
    metrics["trace.wall_s"] = median["wall_s"]
    metrics["trace.uncovered_s"] = median["wall_s"] - sum(spans["self_s"].values())
    metrics["trace.overhead_s"] = statistics.median(walls) - statistics.median(untraced_walls)
    return metrics


def print_summary(result: dict) -> None:
    n_fail, n = result["failed"], result["attempted"]
    print(f"== {result['workload']}  seed {result['seed']}  invocations {n}  "
          f"failed {n_fail}  failed_frac {n_fail / n:.4g}")
    for reason in result["failures"][:5]:
        print(f"   FAILED: {reason}")
    for name, values in result["dists"].items():
        t = tail(values)
        tail_text = f"p{t[0]} {t[1]:.6g}" if t else "no percentile with 10 beyond"
        print(f"   {name:<12} median {statistics.median(values):.6g} {END_TO_END[name]:<3} "
              f"{tail_text} (n={len(values)})")
    if "trace.wall_s" in result["metrics"]:
        for name, m in result["metrics"].items():
            if name.endswith(".calls") and m["value"] == 0:
                continue
            print(f"   {name:<42} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"environment": result["environment"]}, sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "genecon" / "cli.py").is_file():
        print(f"bench: no genecon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        work = WORK_ROOT / f"{name}-{os.getpid()}"
        try:
            results.append(run_workload(name, args.seed, args.seconds, bool(args.trace), work))
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(work, ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK_ROOT.rmdir()
        print_summary(results[-1])

    failed = sum(r["failed"] for r in results)
    metrics = results[0]["metrics"] if len(results) == 1 else {
        f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
