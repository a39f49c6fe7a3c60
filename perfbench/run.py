"""Benchmark of nimgen: run one workload and print its metrics.

    python3 perfbench/run.py --workload dih-sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a nimgen checkout; nimgen is imported from ``src``.
The run repeats whole rounds of the workload until about ``--seconds`` have
passed.  Each round runs in a fresh interpreter, so no in-process state of
one round serves the next; the result cache stays off (no ``--cache``, no
``NIMGEN_CACHE``).  The last line of stdout is one JSON object: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of
BENCHMARK.json with ``--trace 1``.  A trace run alternates untraced and
traced rounds, so the tracing overhead is measured in the same run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Every run must end within 180 s, a hung round included.
DEADLINE_S = 170


def run_round(root: Path, args, traced: bool, env: dict, timeout: float) -> dict:
    out = HERE / "out"
    work = out / f"work-{os.getpid()}"
    trace_file = out / f"trace-{args.workload}-seed{args.seed}.jsonl"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), args.workload,
             str(args.seed), "1" if traced else "0", str(work), str(trace_file)],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=timeout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["traced"] = traced
    return result


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "nimgen" / "__init__.py").is_file():
        print(f"error: no nimgen sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    (HERE / "out").mkdir(exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "NIMGEN_CACHE"}
    env["PYTHONPATH"] = str(src)
    # glibc raises its mmap threshold after each large free, so where a big
    # dict lands, and the peak RSS, would depend on the operations before
    # it; a fixed threshold (glibc's initial value) removes that history.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"

    rounds: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = args.trace == 1 and len(rounds) % 2 == 1
        rounds.append(run_round(root, args, traced, env,
                                DEADLINE_S - (time.perf_counter() - started)))
        elapsed = time.perf_counter() - started
        # Stop within half a round of the budget; a trace run needs both kinds.
        if (elapsed * (1 + 0.5 / len(rounds)) >= args.seconds
                and (args.trace == 0 or len(rounds) >= 2)):
            break

    for r in rounds:
        for problem in r["problems"]:
            print(f"FAILED {problem}", file=sys.stderr)
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]

    def median(rs: list[dict], key: str) -> float:
        return statistics.median(r[key] for r in rs)

    if args.trace == 0:
        values = {"setup_s": median(rounds, "setup_s"),
                  "cpu_norm": median(plain, "cpu_norm"),
                  "peak_rss_mb": median(rounds, "peak_rss_mb")}
        wanted = spec["end_to_end"]
    else:
        values = {}
        for k, first in traced[0]["layers"].items():
            # Counts repeat exactly from round to round; keep them whole.
            pick = statistics.median_low if isinstance(first, int) else statistics.median
            values[k] = pick(r["layers"][k] for r in traced)
        values["host.ref_kernel_s"] = median(rounds, "ref_kernel_s")
        # Host-corrected: the norm difference at the run's median host speed.
        values["trace.overhead_s"] = values["host.ref_kernel_s"] * (
            median(traced, "cpu_norm") - median(plain, "cpu_norm"))
        wanted = spec["per_layer"]
    print(f"rounds={len(rounds)} traced={len(traced)} "
          f"cpu_s={[round(r['cpu_s'], 4) for r in plain]} "
          f"cpu_norm={[round(r['cpu_norm'], 1) for r in plain]} "
          f"host.ref_kernel_s={median(rounds, 'ref_kernel_s'):.6f}")
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
