"""The benchmark's workloads: inputs made from a seed, set-up, and the
measured phase, all through textda's public entry points.

desk-das     DAS training at acceptance criterion 4's shape (d=24, h=96,
             V=502, B=50). Tiny matrices, so per-op overhead, the
             embed_windows scatter and the per-epoch ensemble refresh
             dominate; GEMM and the optimizer matter little.
paper-das    DAS training at the paper's widths (d=h=300, V=10,002, l=3,
             B=50, dropout 0.5). GEMM in affine, the full-size embedding
             gradient and its RMSProp update dominate; memory is at stake.
paper-score  forward-only scoring of a paper-width checkpoint through
             `textda evaluate`: the read-only use of the same autodiff and
             model code, untouched by backward or optimizer changes.

Paper-length documents (ROADMAP's P = 200/400 and 400-token documents) are
left out: every Tape is a reference cycle freed only by the cyclic garbage
collector, and at those lengths one process passes 5-6 GB. peak_rss_mb
reports that defect on the shapes kept here.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import resource
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
import stats
from clock import StepClock
from tracer import Tracer

MIN_SCORE_PASSES = 2      # timed scoring passes per run


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str             # "train" or "score"
    spec: dict            # textda.synth.SyntheticSpec fields, seed excluded
    config: dict = field(default_factory=dict)   # TrainConfig fields, seed excluded
    width: int = 300      # scoring checkpoint: d = h
    min_accuracy: float = 0.0   # target test accuracy a trained model must reach

    def train_config(self, seed: int):
        from textda.config import TrainConfig
        return TrainConfig(seed=seed, **self.config)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "desk-das", "train",
            spec=dict(n_train=2000, n_test=1000, shift=0.7, len_min=8, len_max=30,
                      filler_per_domain=250),
            config=dict(variant="DAS", lambda1=10.0, lambda2=0.1, lambda3=3.0, alpha=0.5,
                        epochs=3, batch_size=50, hidden=96, embedding_dim=24,
                        vocab_size=500, n_dev=250, dropout_rate=0.3, learning_rate=1e-3),
            min_accuracy=0.45,  # clearly above chance (1/3); trained seeds reached 0.55-0.91
        ),
        Workload(
            "paper-das", "train",
            spec=dict(n_train=400, n_test=200, shift=0.7, len_min=10, len_max=50,
                      filler_per_domain=20000),
            config=dict(variant="DAS", lambda1=200.0, lambda2=1.0, lambda3=3.0, alpha=0.5,
                        epochs=2, batch_size=50, hidden=300, embedding_dim=300, window=3,
                        vocab_size=10000, n_dev=100, dropout_rate=0.5),
        ),
        Workload(
            "paper-score", "score",
            spec=dict(n_train=1000, n_test=2000, shift=0.7, len_min=5, len_max=25,
                      filler_per_domain=20000),
            config=dict(vocab_size=10000),
        ),
    )
}


# ------------------------------------------------------------------ inputs


def _write_embeddings(path: Path, corpora, dim: int, rng: np.random.Generator) -> None:
    """Pretrained-format text file with a vector for every token the corpora
    use, as a downloaded embedding file would have."""
    tokens = sorted({tok for corpus in corpora for doc in corpus for tok in doc.tokens})
    vectors = rng.uniform(-0.25, 0.25, size=(len(tokens), dim))
    buf = io.StringIO()
    np.savetxt(buf, vectors, fmt="%.6f")
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(f"{tok} {row}\n" for tok, row in zip(tokens, buf.getvalue().splitlines()))


def _random_checkpoint(vocab_size: int, width: int, rng: np.random.Generator) -> dict:
    """Paper-width parameters: uniform embeddings (padding row zero),
    Glorot-uniform weights, small random biases."""
    window, classes = 3, 3
    s_conv = math.sqrt(6.0 / (window * width + width))
    s_head = math.sqrt(6.0 / (width + classes))
    E = rng.uniform(-0.25, 0.25, size=(vocab_size, width))
    E[0] = 0.0
    return dict(
        E=E,
        W=rng.uniform(-s_conv, s_conv, size=(width, window * width)),
        b=rng.uniform(-0.05, 0.05, size=width),
        F_w=rng.uniform(-s_head, s_head, size=(classes, width)),
        F_b=rng.uniform(-0.05, 0.05, size=classes),
    )


def input_files(workload: Workload, out: Path) -> dict[str, Path]:
    names = {"source": "source.jsonl", "target": "target.jsonl", "test": "test.jsonl"}
    if workload.kind == "train":
        names["embeddings"] = "embeddings.txt"
    else:
        names.update(vocab="vocab.txt", checkpoint="model.ckpt")
    return {key: out / name for key, name in names.items()}


def generate(workload: Workload, seed: int, out: Path) -> dict:
    """Write the workload's input files under `out`; same seed, same bytes.
    Returns the file paths (and, for scoring, the checkpoint arrays the
    reference forward uses)."""
    from textda import data, model, synth

    out.mkdir(parents=True, exist_ok=True)
    files = input_files(workload, out)
    corpora = synth.generate_synthetic(synth.SyntheticSpec(seed=seed, **workload.spec))
    data.save_corpus(corpora["source_labeled"], files["source"])
    data.save_corpus(corpora["target_unlabeled"], files["target"])
    data.save_corpus(corpora["target_test"], files["test"])
    rng = np.random.default_rng([seed, 0x5EED])
    if workload.kind == "train":
        _write_embeddings(files["embeddings"], (corpora["source_labeled"], corpora["target_unlabeled"]),
                          workload.config["embedding_dim"], rng)
        return {"files": files}
    vocab = data.build_vocab([corpora["source_labeled"], corpora["target_unlabeled"]],
                             workload.config["vocab_size"])
    vocab.save(files["vocab"])
    arrays = _random_checkpoint(len(vocab), workload.width, rng)
    model.save_checkpoint(model.ModelParams(window=3, **arrays), vocab.content_hash(),
                          files["checkpoint"])
    return {"files": files, "arrays": arrays}


# ------------------------------------------------------------------ set-up


def prepare_training(files: dict, config):
    """Set-up as `textda train` does it: corpora, vocabulary, dev split,
    pretrained embeddings. Looks names up at call time so traced wrappers
    apply."""
    import textda.data
    from textda.rng import named_rng

    d = textda.data
    source = d.load_corpus(files["source"], "source")
    target = d.load_corpus(files["target"], "target")
    vocab = d.build_vocab([source, target], config.vocab_size)
    train_split, dev = d.split_dev(source, config.n_dev, named_rng(config.seed, "split"))
    embeddings, _ = d.load_pretrained_embeddings(
        files["embeddings"], vocab, config.embedding_dim, named_rng(config.seed, "embeddings"))
    return vocab, embeddings, train_split, target, dev


def run_until_first_step(workload: Workload, seed: int, files: dict, ready) -> None:
    """Set up as a fresh process would and call `ready()` when the first
    training step or scoring batch is about to start."""
    import textda.data
    import textda.ensemble
    import textda.trainer

    if workload.kind == "train":
        epoch = textda.data.BatchStream.epoch

        def first_epoch(stream):
            for triple in epoch(stream):
                ready()
                yield triple

        textda.data.BatchStream.epoch = first_epoch
        config = workload.train_config(seed)
        textda.trainer.train(config, *prepare_training(files, config))
    else:
        forward_eval = textda.ensemble.forward_eval

        def first_batch(*args, **kwargs):
            ready()
            return forward_eval(*args, **kwargs)

        textda.ensemble.forward_eval = first_batch
        run_cli(evaluate_argv(files, files["checkpoint"], files["vocab"], files["test"].parent / "probe"))


def evaluate_argv(files: dict, checkpoint, vocab, out: Path) -> list[str]:
    return ["evaluate", "--checkpoint", str(checkpoint), "--vocab", str(vocab),
            "--test", str(files["test"]), "--out", str(out)]


def run_cli(argv: list[str]) -> int:
    """`textda <argv>` in-process, its report lines kept off our stdout."""
    import textda.cli

    with contextlib.redirect_stdout(io.StringIO()):
        return textda.cli.main(argv)


# --------------------------------------------------------------- measuring


class Window:
    """The measured phase of a run: open until `seconds` of measuring have
    passed. `pause(share)` runs between timed calls or passes, told the share
    of the window used so far; its time is left out of the window."""

    def __init__(self, seconds: float, pause):
        self.seconds = seconds
        self._pause = pause
        self._begin = perf_counter()
        self._paused = 0.0

    def elapsed(self) -> float:
        return perf_counter() - self._begin - self._paused

    def open(self) -> bool:
        return self.elapsed() < self.seconds

    def pause(self) -> None:
        start = perf_counter()
        self._pause(self.elapsed() / self.seconds)
        self._paused += perf_counter() - start


@dataclass
class Measured:
    docs_per_s: list[float]        # one figure per train() call or scoring pass
    step_seconds: list[float]      # untraced timed steps
    peak_rss_mb: float
    runs: int                      # train() calls or scoring passes
    attempted: int
    failed: int
    notes: list[str]
    clock: StepClock
    tracer: Tracer | None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _history_without_seconds(path: Path) -> str:
    return "\n".join(line.rsplit(",", 1)[0] for line in path.read_text().splitlines())


def _history_finite(history) -> bool:
    return all(math.isfinite(v) for m in history.epochs
               for v in (m.L, m.J, m.Gamma, m.Omega, m.total, m.dev_error))


def _clock(trace: bool) -> StepClock:
    """A step clock, with a tracer installed first when tracing so that the
    clock's wrappers call the traced functions."""
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    return StepClock(tracer)


def measure_training(workload: Workload, seed: int, inputs: dict, seconds: float,
                     trace: bool, work: Path, pause) -> Measured:
    import textda.model
    import textda.trainer

    files = inputs["files"]
    config = workload.train_config(seed)
    vocab, embeddings, train_split, target, dev = prepare_training(files, config)
    vocab_path = work / "vocab.txt"
    vocab.save(vocab_path)
    per_epoch = (len(train_split) + len(target)) // config.batch_size * config.batch_size

    reps: list[dict] = []

    def train_once() -> dict:
        # Each call starts from a fresh process's memory state. Without this,
        # how many tapes of the previous call are still uncollected varies
        # from run to run, and so does the peak (4.7 vs 5.8 GB on paper-das).
        # Scoring passes need no such reset: their peak is steady.
        gc.collect()
        start = perf_counter()
        params, history = textda.trainer.train(config, vocab, embeddings, train_split, target, dev)
        train_s = perf_counter() - start
        rep_dir = work / f"rep{len(reps):02d}"
        rep_dir.mkdir()
        textda.model.save_checkpoint(params, vocab.content_hash(), rep_dir / "model.ckpt")
        textda.trainer.write_history_csv(history, rep_dir / "history.csv")
        return {
            "docs_per_s": config.epochs * per_epoch / train_s,
            "ckpt": _sha256(rep_dir / "model.ckpt"),
            "history": _history_without_seconds(rep_dir / "history.csv"),
            "finite": _history_finite(history),
            "dir": rep_dir,
        }

    # The first call faults in the process's memory (about 25% slower on
    # paper-das); it is checked like the others but not timed, so every
    # timed call runs in the same memory state.
    reps.append(train_once())
    clock = _clock(trace)
    clock.install_training()
    tracer = clock.tracer
    notes: list[str] = []
    window = Window(seconds, pause)
    while len(reps) < 2 or window.open():
        clock.run = len(reps)
        if tracer is not None:
            tracer.run = clock.run
        reps.append(train_once())
        clock.train_returned()
        window.pause()
    peak = peak_rss_mb()

    failed = 0
    for k, rep in enumerate(reps):
        bad = []
        if not rep["finite"]:
            bad.append("non-finite loss in history")
        if rep["ckpt"] != reps[0]["ckpt"]:
            bad.append("model.ckpt differs from the first same-seed run")
        if rep["history"] != reps[0]["history"]:
            bad.append("history.csv (seconds masked) differs from the first same-seed run")
        if bad:
            failed += 1
            notes.append(f"train() call {k}: " + "; ".join(bad))

    # score the held-out target set with the last checkpoint, through the CLI
    if tracer is not None:
        tracer.run = -1
    eval_dir = work / "eval"
    rc = run_cli(evaluate_argv(files, reps[-1]["dir"] / "model.ckpt", vocab_path, eval_dir))
    report = json.loads((eval_dir / "eval_report.json").read_text()) if rc == 0 else {}
    accuracy = report.get("accuracy", float("nan"))
    notes.append(f"target test accuracy {accuracy:.4f} over {report.get('n_docs')} documents")
    if rc != 0 or report.get("n_docs") != workload.spec["n_test"]:
        failed += 1
        notes.append(f"textda evaluate failed (exit {rc})")
    elif not accuracy >= workload.min_accuracy:
        failed += 1
        notes.append(f"target accuracy {accuracy:.4f} is below {workload.min_accuracy}")

    return Measured(
        docs_per_s=[r["docs_per_s"] for r in reps[1:]],
        step_seconds=clock.step_seconds(),
        peak_rss_mb=peak,
        runs=len(reps) - 1,
        attempted=len(reps) + 1,
        failed=failed,
        notes=notes,
        clock=clock, tracer=tracer,
    )


def measure_scoring(workload: Workload, seed: int, inputs: dict, seconds: float,
                    trace: bool, work: Path, pause) -> Measured:
    files = inputs["files"]
    # an untimed first pass, as in measure_training
    warm_code = run_cli(evaluate_argv(files, files["checkpoint"], files["vocab"], work / "eval"))
    clock = _clock(trace)
    clock.install_scoring()
    codes: list[int] = []
    min_steps = 0 if trace else stats.samples_needed(90)
    window = Window(seconds, pause)
    while (len(codes) < MIN_SCORE_PASSES or window.open()
           or len(clock.step_seconds()) < min_steps):
        clock.run = len(codes)
        if clock.tracer is not None:
            clock.tracer.run = clock.run
        codes.append(run_cli(evaluate_argv(files, files["checkpoint"], files["vocab"],
                                           work / "eval")))
        window.pause()
    peak = peak_rss_mb()
    failed, notes = _check_scores(workload, inputs, clock, codes)
    if warm_code != 0:
        failed += 1
        notes.append(f"untimed first pass: exit {warm_code}")
    n_docs = workload.spec["n_test"]
    return Measured(
        docs_per_s=[n_docs / s for s in clock.passes],
        step_seconds=clock.step_seconds(),
        peak_rss_mb=peak,
        runs=len(codes),
        attempted=len(clock.batches) + 1,
        failed=failed,
        notes=notes,
        clock=clock, tracer=clock.tracer,
    )


def _check_scores(workload: Workload, inputs: dict, clock: StepClock, codes: list[int]):
    """Every batch of every pass must match the reference forward of the
    first pass's batches to 1e-12 relative, with rows summing to 1."""
    by_pass: dict[int, list] = {}
    for run, mat, lengths, probs in clock.batches:
        by_pass.setdefault(run, []).append((mat, lengths, probs))
    first = by_pass.get(0, [])
    expected = [reference.forward(mat=mat, lengths=lengths, **inputs["arrays"])
                for mat, lengths, _ in first]
    failed, notes = 0, []
    for run, code in enumerate(codes):
        batches = by_pass.get(run, [])
        rows = sum(len(probs) for _, _, probs in batches)
        if code != 0 or rows != workload.spec["n_test"] or len(batches) != len(first):
            failed += max(len(batches), 1)
            notes.append(f"pass {run}: exit {code}, {rows} documents scored in {len(batches)} batches")
            continue
        bad = sum(
            1 for (mat, lengths, probs), (mat0, lengths0, _), exp in zip(batches, first, expected)
            if not (np.array_equal(mat, mat0) and np.array_equal(lengths, lengths0))
            or reference.mismatch(probs, exp)
        )
        if bad:
            failed += bad
            notes.append(f"pass {run}: {bad} batches differ from the reference forward")
    notes.append(f"{len(codes)} passes of {workload.spec['n_test']} documents, "
                 f"{len(clock.batches)} batches checked against the reference forward")
    return failed, notes
