"""Step timing from outside textda, used on every run, traced or not.

A training step is one iteration of `train()`: the time from the moment
`BatchStream.epoch` hands a batch to the trainer to the moment the trainer
asks for the next one. A scoring step is one `forward_eval` call made by
`predict_all`. When a Tracer is attached, every other timed step is traced
and becomes a span; the rest give the untraced figures of the same run.
"""

from __future__ import annotations

import sys
import weakref
from time import perf_counter


class StepClock:
    def __init__(self, tracer=None):
        self.tracer = tracer
        self.run = 0
        self.steps: list[tuple[int, float, bool]] = []   # (epoch, seconds, traced); epoch 0 = scoring
        self.epoch_ends: list[float] = []                 # seconds from an epoch's last step to the next
        self.passes: list[float] = []                     # seconds in evaluate_corpus per pass
        self.batches: list[tuple[int, object, object, object]] = []  # (run, mat, lengths, probs)
        self._epoch_done: float | None = None
        self._timed = 0
        self._timed_run = 0

    def _open_step(self, counted: bool):
        """(span or None, traced) for a step about to run; only counted
        steps are ever traced."""
        if self.tracer is None:
            return None, False
        if self._timed_run != self.run:
            self._timed_run, self._timed = self.run, 0
        # the parity flips with the run, so every batch position of a scoring
        # pass (the last batch is smaller) is traced in half of the passes
        traced = counted and (self._timed + self.run) % 2 == 0
        self._timed += counted
        return self.tracer.open_step(traced), traced

    # -------------------------------------------------------------- training

    def install_training(self) -> None:
        BatchStream = sys.modules["textda.data"].BatchStream
        original = BatchStream.epoch
        epochs_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        clock = self

        def epoch(stream):
            n = epochs_seen.get(stream, 0) + 1
            epochs_seen[stream] = n
            clock._close_epoch_end()
            for triple in original(stream):
                span, traced = clock._open_step(n >= 2)
                start = perf_counter()
                yield triple
                seconds = perf_counter() - start
                if clock.tracer is not None:
                    clock.tracer.close_step(span)
                clock.steps.append((n, seconds, traced))
            clock._epoch_done = perf_counter()

        BatchStream.epoch = epoch

    def _close_epoch_end(self) -> None:
        if self._epoch_done is not None:
            self.epoch_ends.append(perf_counter() - self._epoch_done)
            self._epoch_done = None

    def train_returned(self) -> None:
        """Call right after train() returns: closes the last epoch's end."""
        self._close_epoch_end()

    # --------------------------------------------------------------- scoring

    def install_scoring(self) -> None:
        ensemble = sys.modules["textda.ensemble"]
        cli = sys.modules["textda.cli"]
        forward_eval, evaluate_corpus = ensemble.forward_eval, cli.evaluate_corpus
        clock = self

        def timed_forward_eval(params, mat, lengths):
            span, traced = clock._open_step(True)
            start = perf_counter()
            probs, enc = forward_eval(params, mat, lengths)
            seconds = perf_counter() - start
            if clock.tracer is not None:
                clock.tracer.close_step(span)
            clock.steps.append((0, seconds, traced))
            clock.batches.append((clock.run, mat, lengths, probs.copy()))
            return probs, enc

        def timed_evaluate_corpus(*args, **kwargs):
            start = perf_counter()
            report = evaluate_corpus(*args, **kwargs)
            clock.passes.append(perf_counter() - start)
            return report

        ensemble.forward_eval = timed_forward_eval
        cli.evaluate_corpus = timed_evaluate_corpus

    # ------------------------------------------------------------- figures

    def step_seconds(self) -> list[float]:
        """Durations of the untraced timed steps: epochs >= 2 of training
        (epoch 1 runs without the bootstrap loss), every scoring batch."""
        return [s for epoch, s, traced in self.steps if epoch != 1 and not traced]
