"""Tests for the benchmark's own helpers.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from textda import autodiff as ad  # noqa: E402
from textda.losses import source_cross_entropy  # noqa: E402
from textda.model import ModelParams, forward_eval  # noqa: E402


# ------------------------------------------------------------- percentiles


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(0)
    values = rng.exponential(size=37).tolist()
    for q in (0, 10, 50, 90, 99, 100):
        assert stats.percentile(values, q) == pytest.approx(np.percentile(values, q), rel=1e-12)
    assert stats.percentile([4.0], 90) == 4.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_sample_count_rule_leaves_ten_beyond():
    assert stats.samples_needed(90) == 100
    assert stats.samples_needed(50) == 20
    assert stats.samples_needed(99) == 1000
    assert stats.reportable(100, 90) and not stats.reportable(99, 90)
    assert stats.reportable(28, 50) and not stats.reportable(28, 90)


def test_quartile_spread_uses_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.8, 9.9, 10.1]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx((q3 - q1) / med)


# ------------------------------------------------------------------ set-ups


def test_setup_probes_are_spread_over_the_measured_phase(monkeypatch, tmp_path):
    probes = run.SetupProbes(workloads.WORKLOADS["desk-das"], 1, tmp_path, False)
    monkeypatch.setattr(probes, "_probe", lambda: probes.seconds.append(1.0))
    done = []
    n = run.SETUP_PROBES
    shares = [0.0, 0.49 / n, 0.5 / n, 0.5, 1.0 - 0.51 / n, 1.0, 1.7]
    for share in shares:
        probes.until(share)
        done.append(len(probes.seconds))
    # probe k is due at share (k + 0.5) / n: none before the first timed call
    assert done == [0, 0, 1, n // 2 + n % 2, n - 1, n, n]


def test_window_leaves_pauses_out_of_the_measured_time():
    shares = []

    def pause(share):
        shares.append(share)
        time.sleep(0.05)

    window = workloads.Window(0.2, pause)
    while window.open():
        time.sleep(0.01)
        window.pause()
    # every pause sleeps longer than the work it follows, so counting pauses
    # would close the window after four rounds at most
    assert len(shares) >= 15
    assert shares == sorted(shares) and shares[-1] >= 1.0 > shares[-2]


# ------------------------------------------------------------------ spans


def test_self_time_subtracts_child_spans(monkeypatch):
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    monkeypatch.setattr(tracer_mod, "perf_counter", lambda: next(ticks))
    t = tracer_mod.Tracer()
    a = t.open("A")
    b = t.open("B")
    t.close(b)
    c = t.open("C")
    t.close(c)
    t.close(a)
    assert (a.duration, a.self_time) == (10.0, 7.0)
    assert b.parent is a and c.parent is a
    assert tracer_mod.self_times(t.spans) == {"A": (7.0, 1), "B": (2.0, 1), "C": (1.0, 1)}


def test_spans_closed_out_of_order_are_rejected():
    t = tracer_mod.Tracer()
    a = t.open("A")
    t.open("B")
    with pytest.raises(RuntimeError):
        t.close(a)


def _tiny_params(seed=3, V=20, d=4, h=6, C=3, window=3):
    rng = np.random.default_rng(seed)
    E = rng.uniform(-0.5, 0.5, (V, d))
    E[0] = 0.0
    return ModelParams(E=E, W=rng.uniform(-0.5, 0.5, (h, window * d)), b=rng.uniform(-0.1, 0.1, h),
                       F_w=rng.uniform(-0.5, 0.5, (C, h)), F_b=rng.uniform(-0.1, 0.1, C),
                       window=window)


def _tiny_batch(seed=4, V=20):
    rng = np.random.default_rng(seed)
    lengths = np.array([5, 1, 7, 3])
    mat = np.zeros((4, 7), dtype=np.int64)
    for row, n in enumerate(lengths):
        mat[row, :n] = rng.integers(2, V, size=n)
    return mat, lengths


def test_tracer_attributes_backward_to_the_recording_op_and_uninstalls():
    import textda.model

    original_affine = ad.affine
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert textda.model.ad.affine is not original_affine
        params = _tiny_params()
        mat, lengths = _tiny_batch()
        tape = ad.Tape()
        leaves = params.leaves(tape)
        step = t.open_step(traced=True)
        enc = textda.model.encode_batch(tape, leaves, mat, lengths)
        loss = source_cross_entropy(np.eye(3)[[0, 1, 2, 0]], textda.model.classify(tape, leaves, enc.xi))
        tape.backward(loss)
        t.close_step(step)
    finally:
        t.uninstall()
    assert ad.affine is original_affine and textda.model.ad.affine is original_affine
    own = tracer_mod.self_times(t.spans, within={id(step)})
    for name in ("autodiff.embed_windows", "autodiff.embed_windows.bwd", "autodiff.affine.bwd",
                 "autodiff.max_over_time_batch.bwd", "autodiff.softmax.bwd", "autodiff.backward"):
        assert name in own, name
    assert own["autodiff.affine"][1] == 2
    # no op closures outside a span: every backward span is named after its op
    assert "unattributed.bwd" not in own
    assert t.step_tensors > 0 and t.step_grad_bytes > 0
    assert t.tapes_live_max >= 1


def test_step_layer_figures_add_up_to_the_mean_traced_step():
    import textda.data
    import textda.losses
    import textda.model

    t = tracer_mod.Tracer()
    t.install()
    try:
        params = _tiny_params()
        mat, lengths = _tiny_batch()
        docs = [row[:n] for row, n in zip(mat, lengths)]
        for _ in range(3):
            tape = ad.Tape()
            leaves = params.leaves(tape)
            step = t.open_step(traced=True)
            padded, padded_lengths = textda.data.pad_batch(docs, np.arange(len(docs)))
            enc = textda.model.encode_batch(tape, leaves, padded, padded_lengths)
            probs = textda.model.classify(tape, leaves, enc.xi)
            tape.backward(textda.losses.source_cross_entropy(np.eye(3)[[0, 1, 2, 0]], probs))
            t.close_step(step)
    finally:
        t.uninstall()
    steps = [s for s in t.spans if s.name == tracer_mod.STEP]
    measured = SimpleNamespace(tracer=t, clock=SimpleNamespace(epoch_ends=[]), runs=1,
                               step_seconds=[s.duration for s in steps])
    values = layers.compute(measured, [{}])
    summed = sum(values[name] for name, unit in layers.metric_units().items() if unit == "ms/step")
    mean_step_ms = statistics.fmean(s.duration for s in steps) * 1e3
    assert summed == pytest.approx(mean_step_ms, rel=1e-9)
    assert values["trace.unattributed_ms"] > 0 and values["autodiff.backward_ms"] > 0
    assert values["data.pad_batch_ms"] > 0


def test_untraced_step_records_nothing():
    import textda.model

    t = tracer_mod.Tracer()
    t.install()
    try:
        params = _tiny_params()
        mat, lengths = _tiny_batch()
        step = t.open_step(traced=False)
        probs, _ = textda.model.forward_eval(params, mat, lengths)
        t.close_step(step)
        assert step is None and t.active
        assert t.spans == [] and t.step_tensors == 0
        traced = t.open_step(traced=True)
        traced_probs, _ = textda.model.forward_eval(params, mat, lengths)
        t.close_step(traced)
    finally:
        t.uninstall()
    assert np.array_equal(probs, traced_probs)
    assert {s.name for s in t.spans} >= {"step", "model.forward_eval", "autodiff.affine"}


# -------------------------------------------------------------- reference


def test_reference_forward_equals_forward_eval():
    params = _tiny_params()
    mat, lengths = _tiny_batch()
    probs, _ = forward_eval(params, mat, lengths)
    expected = reference.forward(params.E, params.W, params.b, params.F_w, params.F_b, mat, lengths)
    assert not reference.mismatch(probs, expected)
    np.testing.assert_allclose(probs, expected, rtol=1e-12, atol=0)


def test_reference_mismatch_catches_a_wrong_probability():
    params = _tiny_params()
    mat, lengths = _tiny_batch()
    expected = reference.forward(params.E, params.W, params.b, params.F_w, params.F_b, mat, lengths)
    wrong = expected.copy()
    wrong[2, 1] *= 1.0 + 1e-9
    assert reference.mismatch(wrong, expected)
    # a different valid length changes the max-pooled features
    other = reference.forward(params.E, params.W, params.b, params.F_w, params.F_b, mat, lengths - (lengths > 1))
    assert reference.mismatch(other, expected)


# -------------------------------------------------------------- generator


def _digests(directory: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", ["desk-das", "paper-score"])
def test_generator_is_deterministic_in_its_seed(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    first = workloads.generate(workload, 7, tmp_path / "a")
    workloads.generate(workload, 7, tmp_path / "b")
    workloads.generate(workload, 8, tmp_path / "c")
    a, b, c = (_digests(tmp_path / k) for k in "abc")
    assert a == b
    assert set(a) == set(c) and all(a[k] != c[k] for k in a)
    assert set(first["files"]) == set(workloads.input_files(workload, tmp_path / "a"))


def test_paper_score_inputs_have_paper_shapes(tmp_path):
    workload = workloads.WORKLOADS["paper-score"]
    inputs = workloads.generate(workload, 1, tmp_path)
    vocab = (tmp_path / "vocab.txt").read_text().splitlines()
    assert len(vocab) == 10002
    assert inputs["arrays"]["E"].shape == (10002, 300)
    assert inputs["arrays"]["W"].shape == (300, 900)


# ------------------------------------------------------------ the contract


def test_benchmark_json_lists_what_the_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
