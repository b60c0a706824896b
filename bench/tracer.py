"""Spans around the public functions of each genecon module, recorded from outside.

The modules import each other's functions by name (``simulate.anova_estimate``,
``cli.partition``, ...), so a wrapper replaces every binding of the function
in every loaded genecon module, not only the defining one. Spans nest through
one stack; a function's self time is its span's duration minus the time its
child spans cover. The CLI runs single-threaded here (GENECON_THREADS unset),
which the single stack relies on.
"""

from __future__ import annotations

import os
import sys
import time

FUNCTIONS = (
    "cli.main",
    "simulate.run_study",
    "simulate.generate_dataset",
    "parallel.ordered_map",
    "estimate.anova_estimate",
    "estimate.load_family_csv",
    "estimate.ingest_gmatrix",
    "core.symmetric_eigen",
    "core.clip_negative_eigenvalues",
    "simplicity.simplicity_basis",
    "simplicity.measure_from_kind",
    "spaces.partition",
    "spaces.canonical_angle_distance",
    "report.partition_report",
    "report.study_report",
    "report.render_partition_figure",
    "report.render_study_figure",
    "report.write_json",
    "report.write_svg",
)


# Computed counts: each traced call adds an amount derived from its arguments
# and result, not measured. normals_drawn follows the generator's documented
# layout (K per family effect, 3K per member).
def _normals(args, result):
    p = args[0]
    return p.n_families * p.dim * (1 + 3 * p.family_size)


def _k3(args, result):
    m = args[0]
    k = m.dim if hasattr(m, "dim") else len(m)
    return k ** 3


def _records(args, result):
    return result.n_families * result.family_size


def _bytes(args, result):
    return os.path.getsize(args[1])


COUNTERS = {  # traced function -> (counter, amount per call)
    "simulate.generate_dataset": ("simulate.normals_drawn", _normals),
    "core.symmetric_eigen": ("core.symmetric_eigen.k3_sum", _k3),
    "estimate.load_family_csv": ("estimate.records_parsed", _records),
    "report.write_json": ("report.bytes_written", _bytes),
    "report.write_svg": ("report.bytes_written", _bytes),
}
COUNTER_UNITS = {
    "simulate.normals_drawn": "computed_count",
    "core.symmetric_eigen.k3_sum": "computed_count",
    "estimate.records_parsed": "computed_count",
    "report.bytes_written": "computed_bytes",
}


class Tracer:
    """Call counts, self times and computed counts of the traced functions in one process."""

    def __init__(self):
        self.calls = dict.fromkeys(FUNCTIONS, 0)
        self.self_s = dict.fromkeys(FUNCTIONS, 0.0)
        self.counts = dict.fromkeys(COUNTER_UNITS, 0)
        self._children = []  # per open span: time covered by its child spans

    def _wrap(self, name, fn):
        children = self._children
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.calls[name] += 1
                self.self_s[name] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each traced function in the loaded genecon modules."""
        modules = [m for n, m in sys.modules.items() if n == "genecon" or n.startswith("genecon.")]
        for name in FUNCTIONS:
            module, attr = name.split(".")
            original = getattr(sys.modules[f"genecon.{module}"], attr)
            traced = self._wrap(name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, traced)

    def result(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s, "counts": self.counts}
