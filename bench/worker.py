"""One measured CLI invocation in a fresh interpreter.

    python3 bench/worker.py '{"calls": [[...argv...], ...], "trace": false}'

Imports genecon.cli from the checkout's src/ first and notes the monotonic
clock when that import is done, so the caller can time interpreter start plus
import. Then it runs ``genecon.cli.main`` on each argument list and prints one
JSON line: import-done time, wall and CPU time of the calls, peak resident
memory, the exit code and, when tracing, the per-function spans. An empty
``calls`` list only measures the import.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
import genecon.cli  # noqa: E402

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rc = 0
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for argv in spec["calls"]:
        rc = genecon.cli.main(argv)
        if rc != 0:
            break
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    out = {
        "imported": IMPORTED,
        "rc": rc,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.result() if tracer else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
