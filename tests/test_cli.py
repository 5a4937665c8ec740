"""End-to-end command line behavior: artifacts, wiring, exit codes."""

import json

import numpy as np
import pytest

from textda import cli, trainer
from textda.cli import main
from textda.config import TrainConfig
from textda.data import Vocab, load_corpus
from textda.errors import NumericalError
from textda.model import load_checkpoint, save_checkpoint
from textda.synth import SyntheticSpec

TINY_CONF = """\
lambda1 = 1.0
lambda2 = 0.1
lambda3 = 1.0
epochs = 2
batch_size = 10
hidden = 8
embedding_dim = 6
vocab_size = 200
n_dev = 12
learning_rate = 0.001
max_doc_len = 50
"""


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("task")
    code = main(["synth", "--out", str(out), "--train-docs", "60",
                 "--test-docs", "30", "--seed", "5", "--len-min", "6", "--len-max", "12"])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory, synth_dir):
    conf = tmp_path_factory.mktemp("conf") / "tiny.conf"
    conf.write_text(TINY_CONF, encoding="utf-8")
    out = tmp_path_factory.mktemp("model")
    code = main([
        "train", "--config", str(conf), "--out", str(out), "--seed", "0",
        "--source", str(synth_dir / "source_labeled.jsonl"),
        "--target", str(synth_dir / "target_unlabeled.jsonl"),
        "--test", str(synth_dir / "target_test.jsonl"),
    ])
    assert code == 0
    return out


# ---------------------------------------------------------------------- synth


def test_synth_writes_loadable_corpora(synth_dir, capsys):
    for name, n in (("source_labeled", 60), ("target_unlabeled", 60), ("target_test", 30)):
        corpus = load_corpus(synth_dir / f"{name}.jsonl", domain="x")
        assert len(corpus) == n
    counts = load_corpus(synth_dir / "source_labeled.jsonl", domain="x").label_counts()
    assert counts == {"negative": 20, "neutral": 20, "positive": 20}


def test_synth_can_emit_unlabeled_source(tmp_path):
    code = main(["synth", "--out", str(tmp_path), "--train-docs", "12",
                 "--test-docs", "6", "--source-unlabeled-docs", "9", "--seed", "1"])
    assert code == 0
    assert len(load_corpus(tmp_path / "source_unlabeled.jsonl", domain="x")) == 9


def test_synth_without_size_flags_uses_the_spec_defaults(tmp_path, monkeypatch):
    seen = []
    real = cli.generate_synthetic
    monkeypatch.setattr(cli, "generate_synthetic", lambda spec: seen.append(spec) or real(spec))
    assert main(["synth", "--out", str(tmp_path)]) == 0
    spec = SyntheticSpec()
    assert seen == [spec]
    for name, n in (("source_labeled", spec.n_train), ("target_unlabeled", spec.n_train),
                    ("target_test", spec.n_test)):
        assert len(load_corpus(tmp_path / f"{name}.jsonl", domain="x")) == n
    assert not (tmp_path / "source_unlabeled.jsonl").exists()


# ---------------------------------------------------------------------- train


def test_train_single_run_artifacts(trained_dir, synth_dir):
    assert (trained_dir / "model.ckpt").is_file()
    assert (trained_dir / "vocab.txt").is_file()
    header, *rows = (trained_dir / "history.csv").read_text(encoding="utf-8").splitlines()
    assert header.startswith("epoch,") and len(rows) == 2
    report = json.loads((trained_dir / "report.json").read_text(encoding="utf-8"))
    assert report["command"] == "train"
    # the echoed config reproduces the run configuration exactly
    echoed = TrainConfig.from_dict(report["config"])
    assert echoed.epochs == 2 and echoed.lambda1 == 1.0 and echoed.seed == 0
    assert report["data"]["n_source"] == 60
    assert report["data"]["embeddings"] is None
    assert report["data"]["vocab_hash"] == Vocab.load(trained_dir / "vocab.txt").content_hash()
    (run,) = report["runs"]
    assert run["seed"] == 0
    assert run["pretrained_tokens_found"] == 0
    assert 0.0 <= run["test"]["accuracy"] <= 1.0
    assert report["aggregate"]["accuracy_mean"] == run["test"]["accuracy"]


def test_train_report_records_the_embeddings_path(tmp_path, synth_dir):
    conf = tmp_path / "tiny.conf"
    conf.write_text(TINY_CONF, encoding="utf-8")
    first = (synth_dir / "source_labeled.jsonl").read_text(encoding="utf-8").splitlines()[0]
    word = json.loads(first)["text"].split()[0]
    embeddings = tmp_path / "embeddings.txt"
    embeddings.write_text(word + " 0.1" * 6 + "\n", encoding="utf-8")
    out = tmp_path / "model"
    code = main([
        "train", "--config", str(conf), "--out", str(out), "--embeddings", str(embeddings),
        "--source", str(synth_dir / "source_labeled.jsonl"),
        "--target", str(synth_dir / "target_unlabeled.jsonl"),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["data"]["embeddings"] == str(embeddings)
    assert report["runs"][0]["pretrained_tokens_found"] == 1


def test_train_multi_run_layout(tmp_path, synth_dir):
    conf = tmp_path / "tiny.conf"
    conf.write_text(TINY_CONF, encoding="utf-8")
    extra = tmp_path / "source_unlabeled.jsonl"
    extra.write_text("".join((synth_dir / "source_labeled.jsonl").read_text(encoding="utf-8")
                             .splitlines(keepends=True)[:20]), encoding="utf-8")
    out = tmp_path / "multi"
    code = main([
        "train", "--config", str(conf), "--out", str(out), "--seed", "7", "--runs", "2", "--dump-ensemble",
        "--source", str(synth_dir / "source_labeled.jsonl"),
        "--target", str(synth_dir / "target_unlabeled.jsonl"),
        "--source-unlabeled", str(extra),
    ])
    assert code == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert [r["seed"] for r in report["runs"]] == [7, 8]
    assert report["aggregate"] is None  # no test corpus given
    n_union = (60 - 12) + 60 + 20  # source minus n_dev, target, unlabeled source
    for sub in ("run00", "run01"):
        assert (out / sub / "model.ckpt").is_file()
        assert (out / sub / "history.csv").is_file()
        dumps = sorted((out / sub).glob("ensemble_epoch*.npy"))
        assert [p.name for p in dumps] == ["ensemble_epoch001.npy", "ensemble_epoch002.npy"]
        assert all(np.load(p).shape == (n_union, 3) for p in dumps)
    assert (out / "vocab.txt").is_file()


def test_train_report_keeps_finished_runs_when_a_later_run_fails(tmp_path, synth_dir, monkeypatch):
    real_train = trainer.train
    calls = []

    def failing_second_call(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise NumericalError("injected failure")
        return real_train(*args, **kwargs)

    monkeypatch.setattr(trainer, "train", failing_second_call)
    conf = tmp_path / "tiny.conf"
    conf.write_text(TINY_CONF, encoding="utf-8")
    out = tmp_path / "partial"
    code = main([
        "train", "--config", str(conf), "--out", str(out), "--seed", "7", "--runs", "3",
        "--source", str(synth_dir / "source_labeled.jsonl"),
        "--target", str(synth_dir / "target_unlabeled.jsonl"),
        "--test", str(synth_dir / "target_test.jsonl"),
    ])
    assert code != 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    (run,) = report["runs"]
    assert run["seed"] == 7
    assert report["aggregate"]["accuracy_mean"] == run["test"]["accuracy"]
    assert (out / "run00" / "model.ckpt").is_file()
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "run00", "run01", "vocab.txt"]


def test_train_missing_source_exits_2_and_names_path(tmp_path, synth_dir, capsys):
    code = main([
        "train", "--out", str(tmp_path / "o"),
        "--source", str(tmp_path / "absent.jsonl"),
        "--target", str(synth_dir / "target_unlabeled.jsonl"),
    ])
    assert code == 2
    assert "absent.jsonl" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_empty_corpus_exits_2_and_names_path(tmp_path, synth_dir, trained_dir, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n", encoding="utf-8")
    for argv in (
        ["train", "--out", str(tmp_path / "o"), "--source", str(empty),
         "--target", str(synth_dir / "target_unlabeled.jsonl")],
        ["evaluate", "--checkpoint", str(trained_dir / "model.ckpt"),
         "--vocab", str(trained_dir / "vocab.txt"), "--test", str(empty)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{empty}: corpus has no documents" in err
        assert "Traceback" not in err


NOT_UTF8 = {"0xff": b"\xff", "latin-1": "é".encode("latin-1")}


@pytest.mark.parametrize("boundary, mutation", [
    *[(boundary, mutation) for boundary in ("corpus", "embeddings", "vocab", "config")
      for mutation in (*NOT_UTF8, "missing")],
    ("config", "epochs = 0"),
    ("config", "variant = nope"),
    ("embeddings", "duplicate"),
])
def test_bad_input_exits_naming_the_file_without_a_traceback(tmp_path, synth_dir, trained_dir, capsys,
                                                             boundary, mutation):
    conf = tmp_path / "run.conf"
    conf.write_text(TINY_CONF, encoding="utf-8")
    embeddings = tmp_path / "embeddings.txt"
    embeddings.write_text("good" + " 0.1" * 6 + "\n", encoding="utf-8")
    test, vocab = synth_dir / "target_test.jsonl", trained_dir / "vocab.txt"
    original = {"corpus": test, "embeddings": embeddings, "vocab": vocab, "config": conf}[boundary]
    lines = original.read_bytes().splitlines(keepends=True)
    token = Vocab.load(vocab).itos[2]
    if mutation == "epochs = 0":
        lines = [b"epochs = 0\n" if line.startswith(b"epochs") else line for line in lines]
    elif mutation == "variant = nope":  # line 12, after the file's 11
        lines.append(b"variant = nope\n")
    elif mutation == "duplicate":  # line 2 gives a vocabulary token a second vector
        lines = [token.encode() + b" 0.1" * 6 + b"\n", token.encode() + b" 0.2" * 6 + b"\n"]
    elif mutation != "missing":  # line 2 holds a word that is not UTF-8
        word = b"caf" + NOT_UTF8[mutation]
        lines.insert(1, {"corpus": b'{"label": "positive", "text": "' + word + b'"}\n',
                         "embeddings": word + b" 0.1" * 6 + b"\n",
                         "vocab": word + b"\n",
                         "config": b"# " + word + b"\n"}[boundary])
    bad = tmp_path / f"bad_{original.name}"
    if mutation != "missing":
        bad.write_bytes(b"".join(lines))
    inputs = {"corpus": test, "embeddings": embeddings, "vocab": vocab, "config": conf, boundary: bad}
    if boundary in ("corpus", "vocab"):
        argv = ["evaluate", "--checkpoint", str(trained_dir / "model.ckpt"),
                "--vocab", str(inputs["vocab"]), "--test", str(inputs["corpus"])]
    else:
        argv = ["train", "--config", str(inputs["config"]), "--out", str(tmp_path / "o"),
                "--source", str(synth_dir / "source_labeled.jsonl"),
                "--target", str(synth_dir / "target_unlabeled.jsonl"), "--embeddings", str(inputs["embeddings"])]
    assert main(argv) == (1 if boundary == "config" else 2)
    err = capsys.readouterr().err
    if mutation == "missing":
        assert f"{bad}: file not found" in err
    elif mutation == "epochs = 0":
        assert f"{bad}: line 4: epochs must be >= 1" in err
    elif mutation == "variant = nope":
        assert f"{bad}: line 12: unknown variant 'nope'" in err
    elif mutation == "duplicate":
        assert f"{bad}: line 2: duplicate token {token!r} (first on line 1)" in err
    else:
        assert f"{bad}: line 2: not valid UTF-8" in err
    assert "Traceback" not in err


def test_train_bad_config_exits_1(tmp_path, synth_dir, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("epochs = -3\n", encoding="utf-8")
    code = main([
        "train", "--config", str(conf), "--out", str(tmp_path / "o"),
        "--source", str(synth_dir / "source_labeled.jsonl"),
        "--target", str(synth_dir / "target_unlabeled.jsonl"),
    ])
    assert code == 1
    assert "epochs" in capsys.readouterr().err


def test_train_rejects_zero_runs(tmp_path, synth_dir):
    code = main([
        "train", "--out", str(tmp_path / "o"), "--runs", "0",
        "--source", str(synth_dir / "source_labeled.jsonl"),
        "--target", str(synth_dir / "target_unlabeled.jsonl"),
    ])
    assert code == 1


# ------------------------------------------------------------------- evaluate


def test_evaluate_matches_train_report_and_writes_json(trained_dir, synth_dir, tmp_path, capsys):
    out = tmp_path / "eval"
    code = main([
        "evaluate", "--checkpoint", str(trained_dir / "model.ckpt"),
        "--vocab", str(trained_dir / "vocab.txt"),
        "--test", str(synth_dir / "target_test.jsonl"),
        "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "accuracy" in text and "macro_f1" in text
    payload = json.loads((out / "eval_report.json").read_text(encoding="utf-8"))
    train_report = json.loads((trained_dir / "report.json").read_text(encoding="utf-8"))
    assert payload["accuracy"] == train_report["runs"][0]["test"]["accuracy"]
    assert payload["n_docs"] == 30
    assert f"{payload['accuracy']:.6f}" in text


def test_evaluate_rejects_mismatched_vocab(trained_dir, synth_dir, tmp_path, capsys):
    lines = (trained_dir / "vocab.txt").read_text(encoding="utf-8").splitlines()
    swapped = tmp_path / "swapped.txt"
    swapped.write_text("\n".join(lines[:2] + [lines[3], lines[2]] + lines[4:]) + "\n",
                       encoding="utf-8")
    code = main([
        "evaluate", "--checkpoint", str(trained_dir / "model.ckpt"),
        "--vocab", str(swapped),
        "--test", str(synth_dir / "target_test.jsonl"),
    ])
    assert code == 2
    assert "hash mismatch" in capsys.readouterr().err
    shorter = tmp_path / "short.txt"
    shorter.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    code = main([
        "evaluate", "--checkpoint", str(trained_dir / "model.ckpt"),
        "--vocab", str(shorter),
        "--test", str(synth_dir / "target_test.jsonl"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "size mismatch" in err and str(shorter) in err


@pytest.mark.parametrize("vocab_hash", [None, 5], ids=["missing", "not-a-string"])
def test_evaluate_rejects_a_checkpoint_without_a_string_vocab_hash(trained_dir, synth_dir, tmp_path, capsys,
                                                                    vocab_hash):
    blob = (trained_dir / "model.ckpt").read_bytes()
    nl = blob.find(b"\n")
    header = json.loads(blob[:nl])
    if vocab_hash is None:
        del header["vocab_hash"]
    else:
        header["vocab_hash"] = vocab_hash
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(json.dumps(header).encode("utf-8") + blob[nl:])
    code = main([
        "evaluate", "--checkpoint", str(bad),
        "--vocab", str(trained_dir / "vocab.txt"),
        "--test", str(synth_dir / "target_test.jsonl"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad.ckpt" in err and "'vocab_hash' must be a string" in err


def test_evaluate_rejects_overflowing_checkpoint_with_exit_3(trained_dir, synth_dir, tmp_path, capsys):
    # finite but huge parameters pass load_checkpoint, then the convolution
    # overflows to inf and softmax to NaN, which argmax would score as class 0
    params, header = load_checkpoint(trained_dir / "model.ckpt")
    params.E[:] = 1e308
    params.W[:] = 1.0
    huge = tmp_path / "huge.ckpt"
    save_checkpoint(params, header["vocab_hash"], huge)
    with np.errstate(all="ignore"):
        code = main([
            "evaluate", "--checkpoint", str(huge),
            "--vocab", str(trained_dir / "vocab.txt"),
            "--test", str(synth_dir / "target_test.jsonl"),
        ])
    assert code == 3
    captured = capsys.readouterr()
    assert "document 0 are not finite" in captured.err
    assert "accuracy" not in captured.out


@pytest.mark.parametrize("n_classes", [2, 4])
@pytest.mark.parametrize("command", ["evaluate", "analyze-filters"])
def test_checkpoint_with_another_class_count_exits_2_naming_it(trained_dir, synth_dir, tmp_path, capsys,
                                                              command, n_classes):
    # a well-formed file whose head has one class fewer or more than LABELS
    params, header = load_checkpoint(trained_dir / "model.ckpt")
    rng = np.random.default_rng(n_classes)
    arrays = {**params.arrays(), "F_w": rng.normal(size=(n_classes, params.hidden)),
              "F_b": rng.normal(size=n_classes)}
    bad = tmp_path / f"head{n_classes}.ckpt"
    with bad.open("wb") as fh:
        fh.write((json.dumps({**header, "n_classes": n_classes}) + "\n").encode("utf-8"))
        for name in ("E", "W", "b", "F_w", "F_b"):
            fh.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())
    test = str(synth_dir / "target_test.jsonl")
    data = ["--test", test] if command == "evaluate" else ["--corpus", test, "--k-filters", "2"]
    code = main([command, "--checkpoint", str(bad), "--vocab", str(trained_dir / "vocab.txt"), *data])
    assert code == 2
    captured = capsys.readouterr()
    assert str(bad) in captured.err and "one row per class" in captured.err
    assert captured.out == ""


# ------------------------------------------------------------- analyze-filters


def test_analyze_filters_artifacts(trained_dir, synth_dir, tmp_path, capsys):
    out = tmp_path / "filters"
    code = main([
        "analyze-filters", "--checkpoint", str(trained_dir / "model.ckpt"),
        "--vocab", str(trained_dir / "vocab.txt"),
        "--corpus", f"src={synth_dir / 'source_labeled.jsonl'}",
        "--corpus", f"tgt={synth_dir / 'target_unlabeled.jsonl'}",
        "--k-filters", "2", "--k-trigrams", "3",
        "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "class: negative" in text and "class: positive" in text
    payload = json.loads((out / "filters.json").read_text(encoding="utf-8"))
    assert set(payload["classes"]) == {"negative", "neutral", "positive"}
    for summaries in payload["classes"].values():
        assert len(summaries) == 2
        for entry in summaries:
            assert len(entry["trigrams"]) <= 3
            for hit in entry["trigrams"]:
                assert "-".join(hit["tokens"]) == hit["rendered"]
                assert np.isfinite(hit["activation"])
                assert hit["domains"] in ("src", "tgt", "src+tgt")
    assert (out / "filters.txt").read_text(encoding="utf-8") == text


def test_analyze_filters_default_tag_is_file_stem(trained_dir, synth_dir, capsys):
    code = main([
        "analyze-filters", "--checkpoint", str(trained_dir / "model.ckpt"),
        "--vocab", str(trained_dir / "vocab.txt"),
        "--corpus", str(synth_dir / "source_labeled.jsonl"),
        "--k-filters", "1", "--k-trigrams", "1",
    ])
    assert code == 0
    assert "source_labeled" in capsys.readouterr().out


def test_analyze_filters_rejects_k_trigrams_below_one(trained_dir, synth_dir, capsys):
    code = main([
        "analyze-filters", "--checkpoint", str(trained_dir / "model.ckpt"),
        "--vocab", str(trained_dir / "vocab.txt"),
        "--corpus", str(synth_dir / "source_labeled.jsonl"),
        "--k-filters", "1", "--k-trigrams", "0",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "k_trigrams" in captured.err and captured.out == ""


def test_analyze_filters_rejects_k_filters_beyond_the_model(trained_dir, synth_dir, capsys):
    code = main([
        "analyze-filters", "--checkpoint", str(trained_dir / "model.ckpt"),
        "--vocab", str(trained_dir / "vocab.txt"),
        "--corpus", str(synth_dir / "source_labeled.jsonl"),
        "--k-filters", "99", "--k-trigrams", "1",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "k_filters must be in [1, 8], got 99" in captured.err and captured.out == ""


# ------------------------------------------------------------------- gradcheck


def test_gradcheck_passes_and_reports(tmp_path, capsys):
    out = tmp_path / "gc"
    code = main(["gradcheck", "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    for component in ("L", "J", "Gamma", "Omega", "MMD", "total"):
        assert f"{component:6s} PASS" in text
    payload = json.loads((out / "gradcheck.json").read_text(encoding="utf-8"))
    assert payload["passed"] is True
    assert payload["tol"] == 1e-4 and payload["h"] == 1e-5
    assert payload["components"]["total"]["max_rel_error"] < 1e-4


@pytest.mark.parametrize("conf", [
    "variant = MMD-baseline\n",
    "variant = MMD-baseline\nmmd_sigma = 2.0\n",
    "variant = NaiveNN\n",
])
def test_gradcheck_passes_under_other_variants(tmp_path, capsys, conf):
    path = tmp_path / "variant.conf"
    path.write_text(conf, encoding="utf-8")
    assert main(["gradcheck", "--config", str(path)]) == 0
    text = capsys.readouterr().out
    for component in ("L", "J", "Gamma", "Omega", "MMD", "total"):
        assert f"{component:6s} PASS" in text


@pytest.mark.parametrize("variant", ["FANN", "DAS-EM", "DAS-SE"])
def test_gradcheck_passes_under_the_ablation_variants(tmp_path, capsys, variant):
    path = tmp_path / "variant.conf"
    path.write_text(f"variant = {variant}\n", encoding="utf-8")
    assert main(["gradcheck", "--config", str(path)]) == 0
    text = capsys.readouterr().out
    for component in ("L", "J", "Gamma", "Omega", "MMD", "total"):
        assert f"{component:6s} PASS" in text


def _corrupt_w_gradient(monkeypatch):
    """Make every gradcheck objective add 1e-3 to each W gradient coordinate.
    The corruption is recorded before the real objective, so backward runs
    it last, after W's gradient is complete."""
    real = cli.objective

    def corrupted(leaves, *args):
        leaves["W"].tape.record(lambda: leaves["W"].grad.__iadd__(1e-3))
        return real(leaves, *args)

    monkeypatch.setattr(cli, "objective", corrupted)


def test_gradcheck_detects_corrupted_gradients(capsys, monkeypatch):
    _corrupt_w_gradient(monkeypatch)
    code = main(["gradcheck"])
    assert code == 3
    text = capsys.readouterr()
    assert "FAIL" in text.out
    assert "gradient check failed" in text.err


@pytest.mark.parametrize("seed", range(12))
def test_gradcheck_passes_on_every_seed_and_fails_on_a_corrupted_gradient(capsys, monkeypatch, seed):
    # the fixture's MMD bias gradients are exactly 0 on most of these seeds,
    # where the difference quotient holds only rounding
    assert main(["gradcheck", "--seed", str(seed)]) == 0
    _corrupt_w_gradient(monkeypatch)
    assert main(["gradcheck", "--seed", str(seed)]) == 3
    capsys.readouterr()


def test_gradcheck_names_each_failing_components_worst_coordinate(tmp_path, capsys, monkeypatch):
    # the corruption adds 1e-3 to every W gradient coordinate and to nothing else
    _corrupt_w_gradient(monkeypatch)
    assert main(["gradcheck", "--out", str(tmp_path)]) == 3
    fails = [line for line in capsys.readouterr().out.splitlines() if " FAIL " in line]
    payload = json.loads((tmp_path / "gradcheck.json").read_text(encoding="utf-8"))
    assert fails and payload["passed"] is False
    for line in fails:
        result = payload["components"][line.split()[0]]
        assert result["worst_param"] == "W" and 0 <= result["worst_index"] < 6 * 12
        assert line.endswith(f" at W[{result['worst_index']}]")


# ----------------------------------------------------------------- bad usage


def test_missing_subcommand_or_flags_exit_1(capsys):
    assert main([]) == 1
    assert main(["train"]) == 1  # missing required flags
    assert main(["--bogus"]) == 1
    assert main(["gradcheck", "--corrupt-gradient"]) == 1  # no test hook in the shipped CLI
    capsys.readouterr()


def test_scheme_choices_come_from_the_data_module():
    import argparse

    from textda.cli import build_parser
    from textda.data import RATING_SCHEMES

    parser = build_parser()
    (subs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    choices = {name: tuple(action.choices)
               for name, sub in subs.choices.items()
               for action in sub._actions if "--scheme" in action.option_strings}
    assert choices == {name: tuple(RATING_SCHEMES) for name in ("train", "evaluate", "analyze-filters")}


def test_train_non_finite_config_value_exits_1(tmp_path, synth_dir, capsys):
    conf = tmp_path / "nan.conf"
    conf.write_text(TINY_CONF + "alpha = nan\n", encoding="utf-8")
    code = main([
        "train", "--config", str(conf), "--out", str(tmp_path / "o"),
        "--source", str(synth_dir / "source_labeled.jsonl"),
        "--target", str(synth_dir / "target_unlabeled.jsonl"),
    ])
    assert code == 1
    assert "alpha must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["distance_loss = mmd-rbf", "bootstrap_from_epoch1 = true",
                                  "rmsprop_rho = 0.9", "rmsprop_eps = 1e-8", "l1_eps = 1e-6",
                                  "max_norm = 3.0", "balance_source = true", "eval_batch = 256"])
def test_train_rejects_removed_config_keys(tmp_path, synth_dir, capsys, line):
    conf = tmp_path / "old.conf"
    conf.write_text(TINY_CONF + line + "\n", encoding="utf-8")
    code = main([
        "train", "--config", str(conf), "--out", str(tmp_path / "o"),
        "--source", str(synth_dir / "source_labeled.jsonl"),
        "--target", str(synth_dir / "target_unlabeled.jsonl"),
    ])
    assert code == 1
    key = line.partition(" ")[0]
    assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command, flag", [
    ("synth", "--config"), ("evaluate", "--seed"), ("analyze-filters", "--seed")])
def test_subcommands_refuse_flags_they_never_read(tmp_path, trained_dir, synth_dir, capsys,
                                                  command, flag):
    model = ["--checkpoint", str(trained_dir / "model.ckpt"), "--vocab", str(trained_dir / "vocab.txt")]
    argv = {
        "synth": ["--out", str(tmp_path / "task"), "--config", str(tmp_path / "missing.conf")],
        "evaluate": [*model, "--test", str(synth_dir / "target_test.jsonl"), "--seed", "123"],
        "analyze-filters": [*model, "--corpus", str(synth_dir / "source_labeled.jsonl"), "--seed", "5"],
    }[command]
    assert main([command, *argv]) == 1
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in captured.err and captured.out == ""
    assert not (tmp_path / "task").exists()


@pytest.mark.parametrize("command", ["synth", "train", "evaluate", "analyze-filters", "gradcheck"])
def test_an_out_path_that_is_a_file_exits_1_naming_it(tmp_path, trained_dir, synth_dir, capsys, command):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    conf = tmp_path / "tiny.conf"
    conf.write_text(TINY_CONF, encoding="utf-8")
    model = ["--checkpoint", str(trained_dir / "model.ckpt"), "--vocab", str(trained_dir / "vocab.txt")]
    argv = {
        "synth": ["--train-docs", "10", "--test-docs", "10"],
        "train": ["--config", str(conf), "--source", str(synth_dir / "source_labeled.jsonl"),
                  "--target", str(synth_dir / "target_unlabeled.jsonl")],
        "evaluate": [*model, "--test", str(synth_dir / "target_test.jsonl")],
        "analyze-filters": [*model, "--corpus", str(synth_dir / "source_labeled.jsonl"), "--k-filters", "2"],
        "gradcheck": [],
    }[command]
    assert main([command, "--out", str(blocker), *argv]) == 1
    err = capsys.readouterr().err
    assert str(blocker) in err
    assert "Traceback" not in err


def test_train_non_finite_parameter_exits_3(tmp_path, synth_dir, capsys, monkeypatch):
    real_step = trainer.RMSProp.step

    def nan_step(self, arrays, grads):
        grads["b"][0] = np.nan
        return real_step(self, arrays, grads)

    monkeypatch.setattr(trainer.RMSProp, "step", nan_step)
    conf = tmp_path / "tiny.conf"
    conf.write_text(TINY_CONF, encoding="utf-8")
    code = main([
        "train", "--config", str(conf), "--out", str(tmp_path / "o"), "--seed", "0",
        "--source", str(synth_dir / "source_labeled.jsonl"),
        "--target", str(synth_dir / "target_unlabeled.jsonl"),
    ])
    assert code == 3
    assert "epoch 1, iteration 1: parameter b is not finite" in capsys.readouterr().err
