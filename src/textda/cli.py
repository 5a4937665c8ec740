"""Command line interface.

Subcommands: train, evaluate, analyze-filters, gradcheck, synth. Exit codes:
0 success, 1 usage, configuration or output error, 2 data error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .config import TrainConfig, parse_config_file
from .data import LABELS, RATING_SCHEMES, BatchTriple, Vocab, build_vocab, load_corpus, save_corpus
from .errors import ConfigError, DataError, NumericalError, TextdaError
from .evaluation import evaluate_corpus, filter_analysis, render_filter_report
from .losses import LossWeights, rampup_weight
from .model import ModelParams, load_checkpoint, save_checkpoint
from .rng import named_rng
from .synth import SyntheticSpec, generate_synthetic
from .trainer import Pools, objective, run_seed, union_pools, write_history_csv


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract here is 1
    def error(self, message):
        raise ConfigError(message)


def _add_common(sub: argparse.ArgumentParser, out_required: bool) -> None:
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--out", required=out_required, help="output directory")


def build_parser() -> _Parser:
    parser = _Parser(prog="textda", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train", parents=[], help="train a model on a source/target domain pair")
    _add_common(p, out_required=True)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--source", required=True, help="labeled source corpus (JSONL)")
    p.add_argument("--target", required=True, help="unlabeled target corpus (JSONL)")
    p.add_argument("--source-unlabeled", help="optional extra unlabeled source corpus")
    p.add_argument("--test", help="optional labeled target test corpus")
    p.add_argument("--embeddings", help="optional pretrained embedding text file")
    p.add_argument("--scheme", choices=RATING_SCHEMES, help="rating scheme for rating-labeled corpora")
    p.add_argument("--runs", type=int, default=1, help="number of seeds (seed, seed+1, ...)")
    p.add_argument("--dump-ensemble", action="store_true", help="dump the ensemble matrix each epoch")
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("evaluate", help="score a checkpoint on a labeled corpus")
    _add_common(p, out_required=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--scheme", choices=RATING_SCHEMES)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("analyze-filters", help="top activating trigrams per class filter")
    _add_common(p, out_required=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--corpus", action="append", required=True, metavar="[TAG=]PATH",
                   help="corpus to scan; repeatable, tag defaults to the file stem")
    p.add_argument("--scheme", choices=RATING_SCHEMES)
    p.add_argument("--k-filters", type=int, default=10)
    p.add_argument("--k-trigrams", type=int, default=5)
    p.set_defaults(func=cmd_analyze_filters)

    p = subs.add_parser("gradcheck", help="finite-difference check of every loss component")
    _add_common(p, out_required=False)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.set_defaults(func=cmd_gradcheck)

    p = subs.add_parser("synth", help="generate a synthetic domain-pair task")
    p.add_argument("--out", required=True, help="output directory")
    # each flag sets the SyntheticSpec field named by its dest; unset flags keep the spec's default
    p.add_argument("--seed", type=int, help="generator seed")
    p.add_argument("--shift", type=float)
    p.add_argument("--train-docs", type=int, dest="n_train")
    p.add_argument("--test-docs", type=int, dest="n_test")
    p.add_argument("--source-unlabeled-docs", type=int, dest="n_source_unlabeled")
    p.add_argument("--sentiment-rate", type=float)
    p.add_argument("--len-min", type=int)
    p.add_argument("--len-max", type=int)
    p.set_defaults(func=cmd_synth)

    return parser


def _load_train_config(args) -> TrainConfig:
    mapping = parse_config_file(args.config) if args.config else {}
    try:
        cfg = TrainConfig.from_strings(mapping)
    except ConfigError as e:  # only a config file's values can be bad
        line = mapping.lines.get(e.field)
        raise ConfigError(f"{args.config}: " + (f"line {line}: " if line else "") + str(e)) from e
    if getattr(args, "seed", None) is not None:  # evaluate and analyze-filters have no --seed
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _load_model(checkpoint, vocab_path) -> tuple[ModelParams, Vocab]:
    """A checkpoint plus the vocabulary it was trained with (size and hash checked)."""
    params, header = load_checkpoint(checkpoint)
    vocab = Vocab.load(vocab_path)
    if len(vocab) != header["vocab_size"]:
        raise DataError(
            f"vocab size mismatch: checkpoint expects {header['vocab_size']}, "
            f"file {vocab_path} has {len(vocab)}")
    if vocab.content_hash() != header["vocab_hash"]:
        raise DataError(
            f"vocab hash mismatch: checkpoint expects {header['vocab_hash']}, "
            f"file {vocab_path} hashes to {vocab.content_hash()}")
    return params, vocab


def _write_json(path: Path, payload: dict) -> None:
    """Write through a temporary file, so `path` always holds a whole report."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def cmd_train(args) -> int:
    cfg = _load_train_config(args)
    if args.runs < 1:
        raise ConfigError(f"--runs must be >= 1, got {args.runs}")
    source = load_corpus(args.source, "source", args.scheme)
    target = load_corpus(args.target, "target", args.scheme)
    source_unlabeled = (
        load_corpus(args.source_unlabeled, "source", args.scheme) if args.source_unlabeled else None)
    test = load_corpus(args.test, "target", args.scheme) if args.test else None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    vocab = build_vocab(union_pools(source, target, source_unlabeled), cfg.vocab_size)
    vocab.save(out / "vocab.txt")
    vocab_hash = vocab.content_hash()

    report = {
        "command": "train",
        "config": dataclasses.asdict(cfg),
        "data": {
            "source": str(args.source),
            "target": str(args.target),
            "source_unlabeled": str(args.source_unlabeled) if args.source_unlabeled else None,
            "test": str(args.test) if args.test else None,
            "embeddings": str(args.embeddings) if args.embeddings else None,
            "scheme": args.scheme,
            "n_source": len(source),
            "n_target": len(target),
            "vocab": str(out / "vocab.txt"),
            "vocab_hash": vocab_hash,
        },
        "runs": [],
        "aggregate": None,
    }
    for k in range(args.runs):
        run_dir = out if args.runs == 1 else out / f"run{k:02d}"
        run_dir.mkdir(parents=True, exist_ok=True)
        run = run_seed(dataclasses.replace(cfg, seed=cfg.seed + k), vocab, source, target, test,
                       args.embeddings, source_unlabeled, run_dir if args.dump_ensemble else None)
        ckpt_path = run_dir / "model.ckpt"
        save_checkpoint(run.params, vocab_hash, ckpt_path)
        write_history_csv(run.history, run_dir / "history.csv")
        line = f"run {k}: seed {run.seed} best_epoch {run.best_epoch} dev_error {run.dev_error:.4f}"
        if test is not None:
            line += f" test_accuracy {run.accuracy:.4f} test_macro_f1 {run.macro_f1:.4f}"
        print(line)
        report["runs"].append({
            "seed": run.seed,
            "best_epoch": run.best_epoch,
            "dev_error": run.dev_error,
            "checkpoint": str(ckpt_path),
            "history": str(run_dir / "history.csv"),
            "pretrained_tokens_found": run.pretrained_tokens_found,
            "test": None if test is None else {"accuracy": run.accuracy, "macro_f1": run.macro_f1},
        })
        if test is not None:
            accs = [r["test"]["accuracy"] for r in report["runs"]]
            f1s = [r["test"]["macro_f1"] for r in report["runs"]]
            report["aggregate"] = {
                "accuracy_mean": float(np.mean(accs)),
                "accuracy_std": float(np.std(accs)),
                "macro_f1_mean": float(np.mean(f1s)),
                "macro_f1_std": float(np.std(f1s)),
            }
        _write_json(out / "report.json", report)

    aggregate = report["aggregate"]
    if aggregate is not None:
        print(f"aggregate over {args.runs} run(s): "
              f"accuracy {aggregate['accuracy_mean']:.4f} macro_f1 {aggregate['macro_f1_mean']:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_train_config(args)
    params, vocab = _load_model(args.checkpoint, args.vocab)
    test = load_corpus(args.test, "target", args.scheme)
    report = evaluate_corpus(params, vocab, test, cfg.max_doc_len)
    print(report.summary())
    if args.out:
        payload = {"command": "evaluate", "checkpoint": str(args.checkpoint),
                   "test": str(args.test), **dataclasses.asdict(report)}
        _write_json(Path(args.out) / "eval_report.json", payload)
    return 0


def cmd_analyze_filters(args) -> int:
    cfg = _load_train_config(args)
    params, vocab = _load_model(args.checkpoint, args.vocab)
    corpora = []
    for value in args.corpus:
        tag, sep, path = value.partition("=")
        if not sep:
            tag, path = Path(value).stem, value
        corpora.append(load_corpus(path, tag, args.scheme))
    report = filter_analysis(params, vocab, corpora, args.k_filters, args.k_trigrams, cfg.max_doc_len)
    text = render_filter_report(report)
    print(text, end="")
    if args.out:
        _write_json(Path(args.out) / "filters.json", dataclasses.asdict(report))
        (Path(args.out) / "filters.txt").write_text(text, encoding="utf-8")
    return 0


def _gradcheck_fixture(cfg: TrainConfig):
    """Toy problem (V=20, d=4, h=6, C=len(LABELS), 4-document batches) plus a builder
    for each loss component on it, all through the trainer's own objective
    with dropout off. "total" is the objective under the given config, with
    MMD sigma pinned to 1.0 unless configured: the median heuristic depends
    on the features, which finite differences would see but the tape treats
    as a constant. Each other component is one term of the objective with
    every term on (DAS, all weights and w_t 1); "MMD" is J under MMD-baseline
    with sigma 1.0."""
    V, d, h, C, window = 20, 4, 6, len(LABELS), 3
    rng = named_rng(cfg.seed, "gradcheck")
    E = rng.uniform(-0.5, 0.5, (V, d))
    E[0] = 0.0
    params = {
        "E": E,
        "W": rng.uniform(-0.5, 0.5, (h, window * d)),
        "b": rng.uniform(-0.1, 0.1, h),
        "F_w": rng.uniform(-0.5, 0.5, (C, h)),
        "F_b": rng.uniform(-0.1, 0.1, C),
    }

    # source, target and union pools of 4 documents each, one after another
    lengths = np.array([5, 3, 7, 4, 6, 4, 3, 5, 4, 5, 2, 6])
    pools = Pools(np.concatenate([rng.integers(2, V, size=n) for n in lengths]), lengths, first=(0, 4, 8))
    y = np.eye(C)[rng.integers(0, C, 4)]
    z_tilde = np.eye(C)[rng.integers(0, C, 4)]
    batch = BatchTriple(np.arange(4), np.arange(4), np.arange(4))
    weights = cfg.effective_weights()
    w_t = rampup_weight(cfg.epochs, cfg.epochs, weights.lambda3)
    total_cfg = dataclasses.replace(
        cfg, dropout_rate=0.0, mmd_sigma=1.0 if cfg.mmd_sigma is None else cfg.mmd_sigma)
    terms_cfg = dataclasses.replace(cfg, variant="DAS", dropout_rate=0.0)
    mmd_cfg = dataclasses.replace(terms_cfg, variant="MMD-baseline", mmd_sigma=1.0)
    all_on = LossWeights(1.0, 1.0, 1.0)

    def build(component):
        def fn(tape, leaves):
            if component == "total":
                return objective(tape, leaves, pools, batch, y, z_tilde, weights, w_t, total_cfg, None)[0]
            config = mmd_cfg if component == "MMD" else terms_cfg
            terms = objective(tape, leaves, pools, batch, y, z_tilde, all_on, 1.0, config, None)[2]
            return terms["J" if component == "MMD" else component]

        return fn

    return params, build


def cmd_gradcheck(args) -> int:
    cfg = _load_train_config(args)
    params, build = _gradcheck_fixture(cfg)
    results = {}
    failed = []
    for component in ("L", "J", "Gamma", "Omega", "MMD", "total"):
        report = ad.grad_check(build(component), params)
        # the worst coordinate is a flat index into that parameter's array
        results[component] = {"passed": report.passed, "max_rel_error": report.max_rel_error,
                              "worst_param": report.worst_param, "worst_index": report.worst_index}
        status = "PASS" if report.passed else "FAIL"
        line = f"{component:6s} {status}  max rel error {report.max_rel_error:.3e}"
        if not report.passed:
            line += f" at {report.worst_param}[{report.worst_index}]"
            failed.append(component)
        print(line)
    if args.out:
        payload = {"command": "gradcheck", "tol": ad.GRAD_CHECK_TOL, "h": ad.GRAD_CHECK_H,
                   "passed": not failed, "components": results}
        _write_json(Path(args.out) / "gradcheck.json", payload)
    if failed:
        raise NumericalError(f"gradient check failed for: {', '.join(failed)}")
    print("gradient check passed for all components")
    return 0


def cmd_synth(args) -> int:
    names = [f.name for f in dataclasses.fields(SyntheticSpec)]
    spec = SyntheticSpec(**{n: getattr(args, n) for n in names if getattr(args, n, None) is not None})
    corpora = generate_synthetic(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, corpus in corpora.items():
        path = out / f"{name}.jsonl"
        save_corpus(corpus, path)
        counts = corpus.label_counts()
        print(f"{path}: {len(corpus)} docs " +
              " ".join(f"{label}={counts[label]}" for label in sorted(counts)))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except TextdaError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except OSError as e:  # a path the system refuses, such as an --out that is a file; e names it
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
