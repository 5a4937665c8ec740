"""Run the benchmark several times per workload and print one table.

    python3 perfbench/suite.py                       # every workload, seeds 1-10
    python3 perfbench/suite.py --workloads paper-das
    python3 perfbench/suite.py --trace               # one traced run per workload

Each run is a fresh `run.py` process with its own seed, measuring for
`run_seconds` from BENCHMARK.json. The table gives, per
workload and end-to-end metric, the median, the quartiles as
`statistics.quantiles(n=4)` computes them, the spread (Q3 - Q1) / median next
to the bound in BENCHMARK.json, the number of runs, and the output-check
verdict. With --trace it prints each workload's per-layer table instead.
Raw results are saved as JSON under .perfbench_work/.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900
RUNS = 10                 # seeds 1..RUNS per workload


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["log"] = lines[:-1]
    return result


def summarize(workload: str, results: list[dict], bounds: dict) -> list[str]:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    verdict = "correct" if all(r["correct"] for r in results) else "INCORRECT"
    out = [f"{workload}: {len(results)} runs, {failed}/{attempted} operations failed, outputs {verdict}"]
    names = list(results[0]["metrics"])
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) == 1:
            out.append(f"  {name:40s} {unit:8s} {med:14.6g}")
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = f"{stats.quartile_spread(values):8.4f}" if med else "     n/a"
        bound = bounds.get(name)
        bound_s = f"{bound:6.3f}" if bound is not None else "     -"
        out.append(f"  {name:40s} {unit:8s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                   f"  spread {spread}  bound {bound_s}")
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    all_workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(all_workloads),
                        help="comma-separated workload names")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = 1 if args.trace else RUNS
    report: dict[str, list[dict]] = {}
    lines: list[str] = []
    for workload in args.workloads.split(","):
        results = []
        for k in range(runs):
            seed = 1 + k
            start = time.monotonic()
            results.append(run_once(workload, seed, spec["run_seconds"], args.trace))
            print(f"# {workload} seed {seed}: {time.monotonic() - start:.1f} s", file=sys.stderr)
        report[workload] = results
        lines += summarize(workload, results, bounds)
    out_dir = ROOT / ".perfbench_work"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"suite-{time.strftime('%Y%m%d-%H%M%S')}{'-trace' if args.trace else ''}.json"
    out_path.write_text(json.dumps(report, indent=1) + "\n")
    print("\n".join(lines))
    print(f"raw results: {out_path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
