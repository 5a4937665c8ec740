"""Per-layer metrics of a traced run.

A layer is a textda module; its functions are the spans the Tracer records.
Step-level `_ms` figures are mean self time per timed step (a training
iteration of epoch >= 2, or one scoring batch), so they add up, with
trace.unattributed_ms, to the mean traced step. So autodiff.backward_ms is
Tape.backward's own loop; the whole backward pass is that plus every .bwd_ms.
Epoch-level and file-level figures are per call; set-up figures are medians
over the fresh-process set-ups.
"""

from __future__ import annotations

import statistics

from tracer import LOSSES, OPS, STEP, self_times

LOSSES_WITH_BACKWARD = LOSSES[:4]   # compose_total records only add/scale; total_loss is float-only
STEP_MODEL = ("encode_batch", "classify", "forward_eval", "apply_max_norm", "leaves")
SETUP = ("textda.import_s", "evaluation.import_s", "data.load_corpus_s",
         "data.build_vocab_s", "data.load_embeddings_s")
PER_CALL_S = ("model.load_checkpoint", "model.save_checkpoint", "ensemble.predict_all_dev",
              "ensemble.predict_all_union", "ensemble.predict_all_eval",
              "evaluation.evaluate_corpus")
PER_CALL_MS = ("ensemble.update", "ensemble.to_targets")


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for op in OPS:
        units[f"autodiff.{op}.fwd_ms"] = "ms/step"
        units[f"autodiff.{op}.bwd_ms"] = "ms/step"
        units[f"autodiff.{op}.calls"] = "1/step"
    units.update({
        "autodiff.backward_ms": "ms/step",
        "autodiff.tensors": "1/step",
        "autodiff.grad_mb": "MB/step",
        "autodiff.tapes_live_max": "count",
        "autodiff.gc_pause_ms": "ms/step",
        "autodiff.gc_collections": "1/step",
    })
    for name in STEP_MODEL:
        units[f"model.{name}_ms"] = "ms/step"
    for name in ("encode_batch", "classify", "forward_eval"):
        units[f"model.{name}.calls"] = "1/step"
    for name in LOSSES:
        units[f"losses.{name}.fwd_ms"] = "ms/step"
    for name in LOSSES_WITH_BACKWARD:
        units[f"losses.{name}.bwd_ms"] = "ms/step"
    units["trainer.rmsprop_step_ms"] = "ms/step"
    units["data.pad_batch_ms"] = "ms/step"
    units["trainer.epoch_end_s"] = "s/epoch"
    for name in PER_CALL_S:
        units[f"{name}_s"] = "s/call"
    for name in PER_CALL_MS:
        units[f"{name}_ms"] = "ms/call"
    units["data.vocab_encode_s"] = "s/run"
    for name in SETUP:
        units[name] = "s"
    units.update({
        "trace.steps": "count",
        "trace.step_ms_mean": "ms",
        "trace.unattributed_ms": "ms/step",
        "trace.attributed_pct": "%",
        "trace.overhead_pct": "%",
    })
    return units


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def compute(measured, setup_layers: list[dict]) -> dict[str, float]:
    """Per-layer values from a traced run and its probes' set-up breakdowns."""
    tracer, clock = measured.tracer, measured.clock
    spans = tracer.spans
    steps = [s for s in spans if s.name == STEP]
    n = max(len(steps), 1)
    within = {id(s) for s in steps}
    own = self_times(spans, within)

    def per_step_ms(name):
        return own.get(name, (0.0, 0))[0] / n * 1e3

    def calls(name):
        return own.get(name, (0.0, 0))[1] / n

    def per_call(name):
        return _mean(s.duration for s in spans if s.name == name)

    out: dict[str, float] = {}
    for op in OPS:
        out[f"autodiff.{op}.fwd_ms"] = per_step_ms(f"autodiff.{op}")
        out[f"autodiff.{op}.bwd_ms"] = per_step_ms(f"autodiff.{op}.bwd")
        out[f"autodiff.{op}.calls"] = calls(f"autodiff.{op}")
    out["autodiff.backward_ms"] = per_step_ms("autodiff.backward")
    out["autodiff.tensors"] = tracer.step_tensors / n
    out["autodiff.grad_mb"] = tracer.step_grad_bytes / 2**20 / n
    out["autodiff.tapes_live_max"] = tracer.tapes_live_max
    out["autodiff.gc_pause_ms"] = per_step_ms("autodiff.gc")
    out["autodiff.gc_collections"] = calls("autodiff.gc")
    for name in STEP_MODEL:
        out[f"model.{name}_ms"] = per_step_ms(f"model.{name}")
    for name in ("encode_batch", "classify", "forward_eval"):
        out[f"model.{name}.calls"] = calls(f"model.{name}")
    for name in LOSSES:
        out[f"losses.{name}.fwd_ms"] = per_step_ms(f"losses.{name}")
    for name in LOSSES_WITH_BACKWARD:
        out[f"losses.{name}.bwd_ms"] = per_step_ms(f"losses.{name}.bwd")
    out["trainer.rmsprop_step_ms"] = per_step_ms("trainer.rmsprop_step")
    out["data.pad_batch_ms"] = per_step_ms("data.pad_batch")
    out["trainer.epoch_end_s"] = _mean(clock.epoch_ends)
    for name in PER_CALL_S:
        out[f"{name}_s"] = per_call(name)
    for name in PER_CALL_MS:
        out[f"{name}_ms"] = per_call(name) * 1e3
    encode_s = sum(s.self_time for s in spans if s.name == "data.vocab_encode" and s.run >= 0)
    out["data.vocab_encode_s"] = encode_s / measured.runs
    for name in SETUP:
        out[name] = statistics.median(layer.get(name, 0.0) for layer in setup_layers)

    traced = [s.duration for s in steps]
    untraced = measured.step_seconds
    out["trace.steps"] = len(steps)
    out["trace.step_ms_mean"] = statistics.fmean(traced) * 1e3
    out["trace.unattributed_ms"] = sum(s.self_time for s in steps) / n * 1e3
    out["trace.attributed_pct"] = sum(s.child for s in steps) / sum(traced) * 100.0
    out["trace.overhead_pct"] = (statistics.fmean(traced) / statistics.fmean(untraced) - 1.0) * 100.0
    return out
