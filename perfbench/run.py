"""Run one textda benchmark workload and print its result.

    python3 perfbench/run.py --workload desk-das --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; textda is imported from its `src`
directory. Inputs are made from the seed under `.perfbench_work/`, handed to
textda as files, and removed at the end. With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` it reports the per-layer metrics of a
traced run and leaves its spans in `.perfbench_work/trace-<workload>.csv.gz`.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: one thread keeps timings steady on a
# small shared machine and stays within nproc anywhere.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PROBE_TIMEOUT_S = 170
SETUP_PROBES = 9          # fresh-process set-ups per run; setup_s is their median

END_TO_END_UNITS = {
    "setup_s": "s",
    "docs_per_s": "docs/s",
    "step_ms_mean": "ms",
    "step_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def import_textda():
    """Import textda from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import textda
    import textda.cli  # not imported by the package; the tracer must see it loaded

    if src.resolve() not in Path(textda.__file__).resolve().parents:
        raise ImportError(f"textda was imported from {textda.__file__}, not from {src}")
    return textda


# ------------------------------------------------------------------ probes


def probe_main(args) -> int:
    """Child process: set up as a fresh process would, print the monotonic
    time at which the first training step or scoring batch starts, exit."""
    import_textda()
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    files = workloads.input_files(workload, Path(args.inputs))
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    def ready():
        out = {"ready": time.monotonic()}
        if tracer is not None:
            totals: dict[str, float] = {}
            for span in tracer.spans:
                totals[span.name] = totals.get(span.name, 0.0) + span.duration
            out["layers"] = {f"{name}_s": totals.get(name, 0.0)
                             for name in ("data.load_corpus", "data.build_vocab", "data.load_embeddings")}
        # the real stdout: scoring probes are inside run_cli's redirect
        sys.__stdout__.write("PROBE " + json.dumps(out) + "\n")
        sys.__stdout__.flush()
        os._exit(0)

    workloads.run_until_first_step(workload, args.seed, files, ready)
    raise RuntimeError("set-up finished without reaching a step")


def _import_seconds(stderr: str) -> dict[str, float]:
    """Cumulative import times from `python -X importtime` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in ("textda", "textda.evaluation"):
            try:
                out[name] = int(parts[1]) / 1e6
            except ValueError:
                pass
    return {"textda.import_s": out.get("textda", 0.0),
            "evaluation.import_s": out.get("textda.evaluation", 0.0)}


class SetupProbes:
    """Fresh-process set-ups spread evenly over the measured phase, each
    between two timed calls or passes. The machine's speed drifts over tens
    of seconds, so set-ups taken together at one moment of the run would
    sample it at that moment only, while the other figures span the run."""

    def __init__(self, workload, seed: int, inputs: Path, trace: bool):
        self.cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [
            str(HERE / "run.py"), "--probe", "--workload", workload.name, "--seed", str(seed),
            "--inputs", str(inputs), "--trace", "1" if trace else "0"]
        self.trace = trace
        self.seconds: list[float] = []   # from spawning each process to its first step
        self.layers: list[dict] = []     # traced: each set-up's per-layer breakdown

    def until(self, share: float) -> None:
        """Set up until the probes due by `share` of the measured phase have run."""
        due = min(SETUP_PROBES, math.floor(share * SETUP_PROBES + 0.5))
        while len(self.seconds) < due:
            self._probe()

    def _probe(self) -> None:
        spawned = time.monotonic()
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        lines = [line for line in proc.stdout.splitlines() if line.startswith("PROBE ")]
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
        report = json.loads(lines[-1][len("PROBE "):])
        self.seconds.append(report["ready"] - spawned)
        if self.trace:
            self.layers.append({**report.get("layers", {}), **_import_seconds(proc.stderr)})


# -------------------------------------------------------------------- main


def end_to_end(measured, setup_seconds: list[float]) -> dict[str, float]:
    import stats

    # Means, not medians, for throughput and step time: the shared machine
    # these were tuned on switches between two speeds about 40% apart, and a
    # median jumps between them with the share of the run spent in each,
    # where a mean moves in proportion. Every call or pass handles the same
    # documents, so the harmonic mean is total documents over total time.
    steps = measured.step_seconds
    return {
        "setup_s": statistics.median(setup_seconds),
        "docs_per_s": statistics.harmonic_mean(measured.docs_per_s),
        "step_ms_mean": statistics.fmean(steps) * 1e3,
        "step_ms_p90": stats.percentile(steps, 90) * 1e3,
        "peak_rss_mb": measured.peak_rss_mb,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--inputs", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe:
        return probe_main(args)
    if args.seconds is None:
        parser.error("--seconds is required")

    try:
        import_textda()
    except ImportError as e:
        print(f"error: cannot import textda from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    import facts
    import layers
    import stats
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)
    work = WORK / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    try:
        inputs = workloads.generate(workload, args.seed, work / "inputs")
        probes = SetupProbes(workload, args.seed, work / "inputs", trace)
        measure = workloads.measure_training if workload.kind == "train" else workloads.measure_scoring
        measured = measure(workload, args.seed, inputs, args.seconds, trace, work, probes.until)
        probes.until(1.0)
        setup_seconds, setup_layers = probes.seconds, probes.layers
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("facts " + json.dumps(facts.collect(ROOT), sort_keys=True))
    for note in measured.notes:
        print(f"check: {note}")
    if trace:
        values = layers.compute(measured, setup_layers)
        units = layers.metric_units()
        trace_path = WORK / f"trace-{workload.name}.csv.gz"
        measured.tracer.write(trace_path)
        print(f"spans: {len(measured.tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        values = end_to_end(measured, setup_seconds)
        units = END_TO_END_UNITS
        n_steps = len(measured.step_seconds)
        print(f"samples: {len(setup_seconds)} set-ups, {len(measured.docs_per_s)} throughput runs, "
              f"{n_steps} timed steps")
        print("set-up seconds: " + " ".join(f"{s:.3f}" for s in setup_seconds))
        print("docs/s per run: " + " ".join(f"{d:.1f}" for d in measured.docs_per_s))
        if not stats.reportable(n_steps, 90):
            print(f"note: step_ms_p90 rests on {n_steps} steps, fewer than the "
                  f"{stats.samples_needed(90)} the sample rule asks for")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]:14.6g} {unit}")
    result = {
        "correct": measured.failed == 0,
        "attempted": measured.attempted,
        "failed": measured.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
