"""Spans around textda's layers, recorded from outside the package.

Tracer.install replaces each public function named in FUNCTIONS, in every
textda module that holds a reference to it, so the wrapper sits where the
caller looks the name up: `textda.trainer` imports `encode_batch` by name,
while `textda.model` calls `ad.affine` through the module. Methods in
METHODS are replaced on their class. Backward closures are wrapped when
`Tape.record` stores them and carry the name of the op that recorded them,
so backward time is attributed per op. Garbage-collector pauses become
spans of their own through `gc.callbacks`.

A span holds its name, start, end, parent, the step it ran in and the run id
(one train() call or one scoring pass). Spans stay in memory; `write` saves
them when the run ends. A span's self time is its duration minus the time
covered by its child spans.

Timed steps alternate between traced and untraced (`open_step`), so one run
gives both the per-layer figures and, from steps that share its memory state
and machine load, the tracing overhead. Inside an untraced step every wrapper
calls straight through.
"""

from __future__ import annotations

import functools
import gc
import gzip
import sys
import weakref
from time import perf_counter

OPS = ("embed_windows", "affine", "relu", "max_over_time_batch", "softmax", "dropout",
       "l1_normalize", "batch_mean", "add", "scale")
LOSSES = ("source_cross_entropy", "feature_adaptation_loss", "entropy_min_loss",
          "bootstrap_loss", "compose_total", "total_loss")

# (module, attribute, span name)
FUNCTIONS = [
    ("textda.autodiff", op, f"autodiff.{op}") for op in OPS
] + [
    ("textda.model", name, f"model.{name}")
    for name in ("encode_batch", "classify", "forward_eval", "apply_max_norm",
                 "load_checkpoint", "save_checkpoint")
] + [
    ("textda.losses", name, f"losses.{name}") for name in LOSSES
] + [
    ("textda.data", "load_corpus", "data.load_corpus"),
    ("textda.data", "build_vocab", "data.build_vocab"),
    ("textda.data", "load_pretrained_embeddings", "data.load_embeddings"),
    ("textda.data", "split_dev", "data.split_dev"),
    ("textda.data", "pad_batch", "data.pad_batch"),
    ("textda.ensemble", "predict_all", "ensemble.predict_all"),
    ("textda.evaluation", "evaluate_corpus", "evaluation.evaluate_corpus"),
    ("textda.trainer", "train", "trainer.train"),
]

# (module, class, method, span name)
METHODS = [
    ("textda.autodiff", "Tape", "backward", "autodiff.backward"),
    ("textda.model", "ModelParams", "leaves", "model.leaves"),
    ("textda.trainer", "RMSProp", "step", "trainer.rmsprop_step"),
    ("textda.ensemble", "EnsembleState", "update", "ensemble.update"),
    ("textda.ensemble", "EnsembleState", "to_targets", "ensemble.to_targets"),
    ("textda.data", "Vocab", "encode", "data.vocab_encode"),
]

# predict_all serves three callers; its span name says which
PREDICT_CALLERS = {"_dev_error": "dev", "train": "union", "evaluate_corpus": "eval"}


def _predict_all_name() -> str:
    # frame 0 is this function, 1 the wrapper, 2 predict_all's caller
    caller = sys._getframe(2).f_code.co_name
    return f"ensemble.predict_all_{PREDICT_CALLERS.get(caller, 'other')}"


SPAN_NAMERS = {"ensemble.predict_all": _predict_all_name}

STEP = "step"            # a timed step: training iteration in epoch >= 2, or scoring batch


class Span:
    __slots__ = ("name", "start", "end", "parent", "child", "step", "run")

    def __init__(self, name, start, parent, step, run):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child = 0.0
        self.step = step
        self.run = run

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


class Tracer:
    def __init__(self):
        self.stack: list[Span] = []
        self.spans: list[Span] = []
        self.run = 0
        self.step: Span | None = None
        self.active = True
        self.tensors = 0
        self.grad_bytes = 0
        self.tapes_live = 0
        self.tapes_live_max = 0
        self.step_tensors = 0
        self.step_grad_bytes = 0
        self._step_marks = (0, 0)
        self._gc_span: Span | None = None
        self._undo: list = []

    # ---------------------------------------------------------------- spans

    def open(self, name: str) -> Span:
        span = Span(name, 0.0, self.stack[-1] if self.stack else None, self.step, self.run)
        self.stack.append(span)
        span.start = span.end = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        top = self.stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order (open: {top.name!r})")
        if span.parent is not None:
            span.parent.child += span.end - span.start
        self.spans.append(span)

    def open_step(self, traced: bool) -> Span | None:
        """Start a timed step; an untraced one records nothing until
        close_step."""
        if not traced:
            self.active = False
            return None
        span = self.open(STEP)
        self.step = span
        self._step_marks = (self.tensors, self.grad_bytes)
        return span

    def close_step(self, span: Span | None) -> None:
        if span is None:
            self.active = True
            return
        self.close(span)
        self.step = None
        self.step_tensors += self.tensors - self._step_marks[0]
        self.step_grad_bytes += self.grad_bytes - self._step_marks[1]

    # -------------------------------------------------------------- patching

    def _traced(self, fn, name: str, namer=None):
        """`fn` wrapped in a span called `name`, or `namer()` when given."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer.open(namer() if namer else name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(span)

        return traced

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "textda" and not mod_name.startswith("textda."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def _replace_attr(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            replacement = self._traced(original, name, SPAN_NAMERS.get(name))
            self._replace_everywhere(original, replacement)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            self._replace_attr(cls, attr, self._traced(getattr(cls, attr), name))

        autodiff = sys.modules["textda.autodiff"]
        tracer = self
        tape_init, tape_record = autodiff.Tape.__init__, autodiff.Tape.record
        tensor_init = autodiff.Tensor.__init__

        def tape_gone():
            tracer.tapes_live -= 1

        def init_tape(tape):
            tape_init(tape)
            tracer.tapes_live += 1
            tracer.tapes_live_max = max(tracer.tapes_live_max, tracer.tapes_live)
            weakref.finalize(tape, tape_gone)

        def record(tape, backward):
            if not tracer.active:
                return tape_record(tape, backward)
            label = (tracer.stack[-1].name if tracer.stack else "unattributed") + ".bwd"

            def traced_backward():
                span = tracer.open(label)
                try:
                    backward()
                finally:
                    tracer.close(span)

            tape_record(tape, traced_backward)

        def init_tensor(tensor, data, tape):
            tensor_init(tensor, data, tape)
            if tracer.active:
                tracer.tensors += 1
                tracer.grad_bytes += tensor.grad.nbytes

        self._replace_attr(autodiff.Tape, "__init__", init_tape)
        self._replace_attr(autodiff.Tape, "record", record)
        self._replace_attr(autodiff.Tensor, "__init__", init_tensor)
        gc.callbacks.append(self._gc_event)

    def uninstall(self) -> None:
        if self._gc_event in gc.callbacks:
            gc.callbacks.remove(self._gc_event)
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _gc_event(self, phase, info) -> None:
        if phase == "start" and self.active:
            self._gc_span = self.open("autodiff.gc")
        elif self._gc_span is not None:
            span, self._gc_span = self._gc_span, None
            self.close(span)

    # ------------------------------------------------------------- reporting

    def write(self, path) -> None:
        """Save every span as CSV: id, parent id, run, step id, name, start
        and end in microseconds from the first span."""
        ids = {id(span): k for k, span in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,run,step,name,start_us,end_us\n")
            for k, s in enumerate(self.spans):
                parent = ids.get(id(s.parent), "") if s.parent is not None else ""
                step = ids.get(id(s.step), "") if s.step is not None else ""
                fh.write(f"{k},{parent},{s.run},{step},{s.name},"
                         f"{(s.start - t0) * 1e6:.1f},{(s.end - t0) * 1e6:.1f}\n")


def self_times(spans, within=None) -> dict[str, tuple[float, int]]:
    """Total self time and call count per span name, optionally only for
    spans whose step is in `within` (a set of span ids)."""
    out: dict[str, list] = {}
    for s in spans:
        if within is not None and (s.step is None or id(s.step) not in within):
            continue
        acc = out.setdefault(s.name, [0.0, 0])
        acc[0] += s.self_time
        acc[1] += 1
    return {name: (t, n) for name, (t, n) in out.items()}
