"""Metrics and filter trigram inspection."""

import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from textda.data import Corpus, Document, Vocab
from textda.errors import ConfigError, DataError, NumericalError
from textda.evaluation import (
    EvalReport,
    accuracy,
    confusion_matrix,
    evaluate_corpus,
    filter_analysis,
    macro_f1,
    per_class_f1,
    render_filter_report,
    top_filters_per_class,
)
from textda.model import ModelParams, init_params


# -------------------------------------------------------------------- metrics


def test_accuracy_and_input_validation():
    assert accuracy([0, 1, 2, 0], [0, 1, 1, 0]) == 0.75
    with pytest.raises(ConfigError):
        accuracy([], [])
    with pytest.raises(ConfigError):
        accuracy([0, 1], [0])
    with pytest.raises(ConfigError):
        accuracy([0, 3], [0, 0])


def test_confusion_matrix_rows_are_gold():
    cm = confusion_matrix([0, 0, 1, 2], [0, 1, 1, 1])
    assert np.array_equal(cm, [[1, 1, 0], [0, 1, 0], [0, 1, 0]])
    assert cm.sum() == 4


def test_macro_f1_hand_oracle_two_thirds():
    # golds P P N, preds P N N: both present classes score f1 = 2/3
    golds = [2, 2, 0]
    preds = [2, 0, 0]
    stats = per_class_f1(golds, preds)
    assert stats[0]["precision"] == 0.5 and stats[0]["recall"] == 1.0
    assert abs(stats[0]["f1"] - 2.0 / 3.0) < 1e-12
    assert stats[2]["precision"] == 1.0 and stats[2]["recall"] == 0.5
    assert abs(stats[2]["f1"] - 2.0 / 3.0) < 1e-12
    assert abs(macro_f1(golds, preds) - 2.0 / 3.0) < 1e-12


def test_macro_f1_averages_only_classes_present_in_golds():
    # class 1 never appears in golds: it contributes nothing, even though
    # it was (wrongly) predicted
    golds = [0, 0, 2, 2]
    preds = [0, 1, 2, 2]
    stats = per_class_f1(golds, preds)
    want = (stats[0]["f1"] + stats[2]["f1"]) / 2.0
    assert macro_f1(golds, preds) == want


def test_macro_f1_zero_over_zero_is_zero():
    assert macro_f1([0, 0], [1, 1]) == 0.0


def test_perfect_predictions_score_one():
    golds = [0, 1, 2, 0, 1, 2]
    assert accuracy(golds, golds) == 1.0
    assert macro_f1(golds, golds) == 1.0


# ----------------------------------------------------------- corpus evaluation


def _toy_setup():
    vocab = Vocab(itos=["<pad>", "<unk>", "good", "bad", "great", "movie"])
    # scalar embeddings: good 1, bad -1, great 3, movie 0.5; summing filter
    params = ModelParams(
        E=np.array([[0.0], [0.0], [1.0], [-1.0], [3.0], [0.5]]),
        W=np.array([[1.0, 1.0, 1.0]]),
        b=np.array([0.0]),
        F_w=np.array([[-1.0], [0.0], [1.0]]),
        F_b=np.zeros(3),
        window=3,
    )
    return vocab, params


def test_evaluate_corpus_consistency():
    vocab, params = _toy_setup()
    docs = [
        Document(("good", "great", "movie"), "positive", None),
        Document(("bad", "bad", "movie"), "negative", None),
        Document(("movie",), "neutral", None),
    ]
    report = evaluate_corpus(params, vocab, Corpus(docs, "d"), max_doc_len=10)
    assert isinstance(report, EvalReport)
    assert report.n_docs == 3
    cm = np.array(report.confusion)
    assert cm.sum() == 3
    assert report.accuracy == cm.trace() / 3.0
    assert report.per_class["positive"]["support"] == 1
    text = report.summary()
    assert "accuracy" in text and "macro_f1" in text
    with pytest.raises(DataError):
        evaluate_corpus(params, vocab, Corpus([], "d"), max_doc_len=10)


# ------------------------------------------------------------ filter analysis


def test_top_filters_per_class_ordering_and_ties():
    F_w = np.array([
        [0.1, 0.9, 0.5],
        [0.9, 0.1, 0.5],
        [0.5, 0.5, 0.1],
    ])
    top = top_filters_per_class(F_w, k=2)
    assert top[0] == [1, 2]
    assert top[1] == [0, 2]
    assert top[2] == [0, 1]  # tie 0.5 vs 0.5 resolves to the lower index
    with pytest.raises(ConfigError):
        top_filters_per_class(F_w, k=0)
    with pytest.raises(ConfigError):
        top_filters_per_class(F_w, k=4)


def test_filter_analysis_finds_strongest_trigram_and_merges_domains():
    vocab, params = _toy_setup()
    src = Corpus([Document(("good", "great", "movie"), "positive", None)], "src")
    tgt = Corpus([Document(("good", "great", "movie", "bad"), "positive", None)], "tgt")
    report = filter_analysis(params, vocab, [src, tgt], k_filters=1, k_trigrams=5)
    hits = report.classes["positive"][0].trigrams
    # window sums: *-good-great 4.0, good-great-movie 4.5, great-movie-* 3.5
    assert hits[0].tokens == ("good", "great", "movie")
    assert abs(hits[0].activation - 4.5) < 1e-12
    assert hits[0].domains == "src+tgt"  # deduplicated across both corpora
    assert hits[0].rendered == "good-great-movie"
    rendered_all = [h.rendered for h in hits]
    assert "*-good-great" in rendered_all  # padding renders as *
    assert len(rendered_all) == len(set(rendered_all))


def test_filter_analysis_is_document_order_invariant():
    vocab, params = _toy_setup()
    docs = [
        Document(("good", "great", "movie"), "positive", None),
        Document(("bad", "movie"), "negative", None),
        Document(("great", "great"), "positive", None),
    ]
    a = filter_analysis(params, vocab, [Corpus(docs, "d")], k_filters=1, k_trigrams=3)
    b = filter_analysis(params, vocab, [Corpus(docs[::-1], "d")], k_filters=1, k_trigrams=3)
    assert json.dumps(asdict(a), indent=2, sort_keys=True) == json.dumps(asdict(b), indent=2, sort_keys=True)


def test_filter_analysis_rejects_k_trigrams_below_one():
    vocab, params = _toy_setup()
    corpus = Corpus([Document(("good", "great", "movie"), "positive", None)], "d")
    for k in (0, -1):
        with pytest.raises(ConfigError, match="k_trigrams"):
            filter_analysis(params, vocab, [corpus], k_filters=1, k_trigrams=k)


def test_filter_analysis_rejects_k_filters_out_of_range():
    vocab, params = _toy_setup()  # one filter
    corpus = Corpus([Document(("good", "great", "movie"), "positive", None)], "d")
    for k in (0, 2):
        with pytest.raises(ConfigError, match=rf"k_filters must be in \[1, 1\], got {k}"):
            filter_analysis(params, vocab, [corpus], k_filters=k, k_trigrams=1)


def test_filter_analysis_names_a_trigram_with_a_non_finite_activation():
    vocab, params = _toy_setup()
    params.E[vocab.stoi["movie"]] = np.nan
    corpus = Corpus([Document(("good", "great", "movie"), "positive", None)], "d")
    # the first of the sorted trigrams that read "movie"
    with pytest.raises(NumericalError, match="trigram good-great-movie are not finite"):
        filter_analysis(params, vocab, [corpus], k_filters=1, k_trigrams=1)


def test_render_filter_report_sections():
    vocab, params = _toy_setup()
    corpus = Corpus([Document(("good", "great", "movie"), "positive", None)], "d")
    report = filter_analysis(params, vocab, [corpus], k_filters=1, k_trigrams=2)
    text = render_filter_report(report)
    assert "class: positive" in text
    assert "filter 0" in text
    assert "good-great-movie" in text


def _brute_force_filter_tops(params, vocab, corpora, filters, k_trigrams, max_doc_len):
    """Per document and position: the window's token names (padding as *)
    and relu(W_j . window + b_j), deduplicated by triple keeping the maximum."""
    names = {0: "*", 1: "<unk>"}
    half = params.window // 2
    best = {j: {} for j in filters}
    for corpus in corpora:
        for doc in corpus:
            ids = [0] * half + list(vocab.encode(doc.tokens, max_doc_len)) + [0] * half
            for i in range(len(ids) - 2 * half):
                window = ids[i : i + params.window]
                triple = tuple(names.get(w, vocab.itos[w]) for w in window)
                x = params.E[window].ravel()
                for j in filters:
                    act = max(float(x @ params.W[j] + params.b[j]), 0.0)
                    got = best[j].get(triple, (act, set()))
                    best[j][triple] = (max(got[0], act), got[1] | {corpus.domain})
    return {
        j: sorted(table.items(), key=lambda kv: (-kv[1][0], kv[0]))[:k_trigrams]
        for j, table in best.items()
    }


def _corpus(domain, token_lists):
    return Corpus([Document(tuple(t), "neutral", None) for t in token_lists], domain)


def _assert_matches_brute_force(params, vocab, corpora, k_trigrams, max_doc_len):
    """filter_analysis over every filter equals the brute-force oracle;
    returns the rendered hits."""
    n_filters = params.W.shape[0]
    report = filter_analysis(params, vocab, corpora, k_filters=n_filters, k_trigrams=k_trigrams,
                             max_doc_len=max_doc_len)
    expected = _brute_force_filter_tops(params, vocab, corpora, range(n_filters), k_trigrams, max_doc_len)
    hits = []
    for summaries in report.classes.values():
        assert sorted(fs.filter for fs in summaries) == list(range(n_filters))
        for fs in summaries:
            want = expected[fs.filter]
            assert [hit.tokens for hit in fs.trigrams] == [triple for triple, _ in want]
            for hit, (_, (act, domains)) in zip(fs.trigrams, want):
                assert abs(hit.activation - act) <= 1e-12
                assert hit.domains == "+".join(sorted(domains))
            hits += fs.trigrams
    return hits


def test_filter_analysis_matches_brute_force_on_ragged_corpus():
    words = ["good", "bad", "great", "movie", "plot", "dull", "fine"]
    vocab = Vocab(itos=["<pad>", "<unk>"] + words)
    rng = np.random.default_rng(5)
    E = rng.uniform(-0.5, 0.5, size=(len(vocab), 2))
    E[0] = 0.0
    E[vocab.stoi["great"]] *= 6.0  # "great" opens or fills short documents
    params = ModelParams(E=E, W=rng.normal(size=(4, 6)), b=rng.normal(0.0, 0.1, size=4),
                         F_w=rng.normal(size=(3, 4)), F_b=np.zeros(3), window=3)
    corpora = [
        _corpus("src", [["great"], ["good", "movie", "plot", "dull", "fine", "bad", "movie"],
                        ["bad", "unseen", "plot"], ["great", "good"], ["fine", "dull", "movie", "good"]]),
        _corpus("tgt", [["movie", "great", "plot", "plot", "bad"], ["dull"],
                        ["good", "movie", "plot", "dull", "fine", "bad", "movie", "great", "good"]]),
    ]
    rendered = [hit.rendered for hit in _assert_matches_brute_force(
        params, vocab, corpora, k_trigrams=4, max_doc_len=8)]
    assert any(r.startswith("*-") for r in rendered) and any(r.endswith("-*") for r in rendered)

    # windows repeated within a document, across documents and across corpora
    corpora = [
        _corpus("src", [["good", "movie", "plot", "good", "movie", "plot"], ["good", "movie", "plot"],
                        ["dull", "fine", "dull", "fine"]]),
        _corpus("tgt", [["fine", "dull", "fine"], ["good", "movie", "plot"], ["great", "great", "great"]]),
    ]
    hits = _assert_matches_brute_force(params, vocab, corpora, k_trigrams=12, max_doc_len=8)
    assert {hit.domains for hit in hits if hit.tokens == ("good", "movie", "plot")} == {"src+tgt"}
    assert {hit.domains for hit in hits if hit.tokens == ("dull", "fine", "dull")} == {"src"}

    # a literal "*" token renders like padding: the (*, good, movie) window of
    # a tgt document and the padded (<pad>, good, movie) window of a src
    # document are one trigram, with both domains and the larger activation
    vocab = Vocab(itos=["<pad>", "<unk>", "*", "good", "movie", "plot"])
    E = rng.uniform(-0.5, 0.5, size=(len(vocab), 2))
    E[0] = 0.0
    E[vocab.stoi["good"]] *= 6.0
    E[vocab.stoi["movie"]] *= 6.0
    params = ModelParams(E=E, W=rng.normal(size=(3, 6)), b=rng.normal(0.0, 0.1, size=3),
                         F_w=rng.normal(size=(3, 3)), F_b=np.zeros(3), window=3)
    corpora = [
        _corpus("src", [["good", "movie"], ["plot", "*"]]),
        _corpus("tgt", [["*", "good", "movie", "plot"], ["plot"]]),
    ]
    star = params.E[vocab.stoi["*"]]
    tail = np.concatenate([params.E[vocab.stoi["good"]], params.E[vocab.stoi["movie"]]])
    star_act = np.maximum(params.W @ np.concatenate([star, tail]) + params.b, 0.0)
    pad_act = np.maximum(params.W @ np.concatenate([np.zeros(2), tail]) + params.b, 0.0)
    assert (star_act != pad_act).any()
    merged = [hit for hit in _assert_matches_brute_force(params, vocab, corpora, k_trigrams=3, max_doc_len=8)
              if hit.tokens == ("*", "good", "movie")]
    assert merged and all(hit.domains == "src+tgt" for hit in merged)


def _reference_filters_dict(report):
    """filters.json's layout, written out key by key."""
    return {
        "k_filters": report.k_filters,
        "k_trigrams": report.k_trigrams,
        "classes": {
            label: [
                {
                    "filter": fs.filter,
                    "class_weight": fs.class_weight,
                    "trigrams": [
                        {
                            "tokens": list(hit.tokens),
                            "rendered": "-".join(hit.tokens),
                            "activation": hit.activation,
                            "domains": hit.domains,
                        }
                        for hit in fs.trigrams
                    ],
                }
                for fs in summaries
            ]
            for label, summaries in report.classes.items()
        },
    }


def test_filters_json_matches_the_reference_layout_byte_for_byte():
    # W ignores the last slot, so trigrams that differ only there tie; a
    # literal "*" renders like padding; two domains
    vocab = Vocab(itos=["<pad>", "<unk>", "*", "good", "movie", "plot"])
    rng = np.random.default_rng(3)
    E = rng.uniform(-0.5, 0.5, size=(len(vocab), 2))
    E[0] = 0.0
    W = rng.normal(size=(2, 6))
    W[:, 4:] = 0.0
    params = ModelParams(E=E, W=W, b=np.full(2, 2.0), F_w=rng.normal(size=(3, 2)), F_b=np.zeros(3),
                         window=3)
    corpora = [
        _corpus("src", [["good", "movie", "plot"], ["*", "good", "*"]]),
        _corpus("tgt", [["good", "movie", "good"], ["plot", "*"]]),
    ]
    report = filter_analysis(params, vocab, corpora, k_filters=2, k_trigrams=20, max_doc_len=8)
    (fs, _), *_ = report.classes.values()
    acts = {hit.tokens: hit.activation for hit in fs.trigrams}
    assert acts[("good", "movie", "plot")] == acts[("good", "movie", "good")]
    assert {hit.domains for hit in fs.trigrams} == {"src", "tgt", "src+tgt"}
    assert any(hit.tokens[0] == "*" and hit.domains == "src+tgt" for hit in fs.trigrams)
    assert json.dumps(asdict(report), indent=2, sort_keys=True) == json.dumps(
        _reference_filters_dict(report), indent=2, sort_keys=True)


def _peak_traced_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_filter_analysis_memory_follows_the_windows_not_the_longest_document():
    # two corpora of 40,400 windows each; one of them has a 400-token document
    # among ten-token ones, which must not size what filter analysis holds
    rng = np.random.default_rng(5)
    vocab = Vocab(itos=["<pad>", "<unk>"] + [f"w{i}" for i in range(398)])
    params = init_params(rng.uniform(-0.25, 0.25, size=(len(vocab), 24)), window=3, hidden=96, rng=rng)

    def corpus(lengths):
        return _corpus("d", [[vocab.itos[i] for i in rng.integers(2, len(vocab), size=n)] for n in lengths])

    long_tail, even = corpus([10] * 4000 + [400]), corpus([10] * 4040)
    peaks = [_peak_traced_bytes(lambda: filter_analysis(params, vocab, [c], k_filters=10)) for c in (long_tail, even)]
    assert peaks[0] <= 1.5 * peaks[1], f"peak {peaks[0] / 1e6:.1f} MB against {peaks[1] / 1e6:.1f} MB"
