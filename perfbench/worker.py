"""One round of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED TRACE WORKDIR TRACEFILE

``run.py`` starts it with ``src`` on ``PYTHONPATH``.  Set-up time covers
importing nimgen and writing the workload's inputs; the round's CPU time
and normalised time cover the operations only, without checks or the
reference loop.
With TRACE 1 the layers are traced and their spans written to TRACEFILE.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer
from workloads import build, run_ops, subgroup_problems


_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))


def release_free_memory() -> None:
    """Collect garbage and hand free heap memory back to the system.

    Together with the fixed mmap threshold that ``run.py`` sets, this makes
    each operation start from the same heap, so the round's peak RSS does
    not depend on the order of the operations.
    """
    gc.collect()
    if hasattr(_LIBC, "malloc_trim"):
        _LIBC.malloc_trim(0)


def main(argv: list[str]) -> int:
    workload, seed, traced, workdir, trace_file = argv
    started = time.perf_counter()
    import nimgen.cli
    ops = build(workload, int(seed), Path(workdir))
    setup_s = time.perf_counter() - started

    tracer = Tracer() if traced == "1" else None
    if tracer is not None:
        tracer.install()

    def on_op(i: int) -> None:
        release_free_memory()
        if tracer is not None:
            tracer.op = i

    res = run_ops(ops, lambda args: nimgen.cli.main(args), on_op)
    layers = None
    if tracer is not None:
        for op, problems in subgroup_problems(ops, tracer.subgroup_counts).items():
            res.problems.setdefault(op, []).extend(problems)
        layers = tracer.metrics()
        tracer.write(Path(trace_file))
    print(json.dumps({
        "setup_s": setup_s,
        "cpu_s": res.cpu_s,
        "cpu_norm": res.cpu_norm,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ref_kernel_s": statistics.median(res.ref_samples),
        "attempted": res.attempted,
        "failed": res.failed,
        "problems": [f"{' '.join(ops[i].argv)}: {'; '.join(p)}"
                     for i, p in sorted(res.problems.items())],
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
