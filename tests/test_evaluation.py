"""Metrics, Welch t-test, and filter trigram inspection."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from textda.data import Corpus, Document, Vocab
from textda.errors import ConfigError, DataError
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
    ttest_one_tailed,
)
from textda.model import ModelParams


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


# ------------------------------------------------------------------- t-test


def test_ttest_matches_scipy_welch_one_tailed():
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.normal(1.0, 0.5, size=8)
        b = rng.normal(0.5, 0.8, size=6)
        ours = ttest_one_tailed(a, b)
        ref = scipy_stats.ttest_ind(a, b, equal_var=False, alternative="greater")
        assert abs(ours.t_stat - ref.statistic) < 1e-12
        assert abs(ours.p_value - ref.pvalue) < 1e-12


def test_ttest_zero_variance_conventions():
    equal = ttest_one_tailed([0.5, 0.5], [0.5, 0.5])
    assert equal.p_value == 0.5 and equal.t_stat == 0.0
    above = ttest_one_tailed([0.9, 0.9], [0.1, 0.1])
    assert above.p_value == 0.0 and above.t_stat == np.inf
    below = ttest_one_tailed([0.1, 0.1], [0.9, 0.9])
    assert below.p_value == 1.0


def test_ttest_p_falls_as_separation_grows():
    rng = np.random.default_rng(1)
    b = rng.normal(0.0, 1.0, size=10)
    noise = rng.normal(0.0, 1.0, size=10)
    ps = [ttest_one_tailed(noise + shift, b).p_value for shift in (0.0, 0.5, 1.5, 3.0)]
    assert all(q < p for p, q in zip(ps, ps[1:]))


def test_ttest_requires_two_observations_each():
    with pytest.raises(ConfigError):
        ttest_one_tailed([1.0], [0.0, 0.1])


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
        Document(("good", "great", "movie"), "positive", None, "d"),
        Document(("bad", "bad", "movie"), "negative", None, "d"),
        Document(("movie",), "neutral", None, "d"),
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
    src = Corpus([Document(("good", "great", "movie"), "positive", None, "src")], "src")
    tgt = Corpus([Document(("good", "great", "movie", "bad"), "positive", None, "tgt")], "tgt")
    report = filter_analysis(params, vocab, [src, tgt], k_filters=1, k_trigrams=5)
    hits = report.classes["positive"][0].trigrams
    # window sums: *-good-great 4.0, good-great-movie 4.5, great-movie-* 3.5
    assert hits[0].tokens == ("good", "great", "movie")
    assert abs(hits[0].activation - 4.5) < 1e-12
    assert hits[0].domains == "src+tgt"  # deduplicated across both corpora
    assert hits[0].rendered() == "good-great-movie"
    rendered_all = [h.rendered() for h in hits]
    assert "*-good-great" in rendered_all  # padding renders as *
    assert len(rendered_all) == len(set(rendered_all))


def test_filter_analysis_is_document_order_invariant():
    vocab, params = _toy_setup()
    docs = [
        Document(("good", "great", "movie"), "positive", None, "d"),
        Document(("bad", "movie"), "negative", None, "d"),
        Document(("great", "great"), "positive", None, "d"),
    ]
    a = filter_analysis(params, vocab, [Corpus(docs, "d")], k_filters=1, k_trigrams=3)
    b = filter_analysis(params, vocab, [Corpus(docs[::-1], "d")], k_filters=1, k_trigrams=3)
    assert a.to_json() == b.to_json()


def test_filter_analysis_rejects_k_trigrams_below_one():
    vocab, params = _toy_setup()
    corpus = Corpus([Document(("good", "great", "movie"), "positive", None, "d")], "d")
    for k in (0, -1):
        with pytest.raises(ConfigError, match="k_trigrams"):
            filter_analysis(params, vocab, [corpus], k_filters=1, k_trigrams=k)


def test_filter_analysis_rejects_k_filters_out_of_range():
    vocab, params = _toy_setup()  # one filter
    corpus = Corpus([Document(("good", "great", "movie"), "positive", None, "d")], "d")
    for k in (0, 2):
        with pytest.raises(ConfigError, match=rf"k_filters must be in \[1, 1\], got {k}"):
            filter_analysis(params, vocab, [corpus], k_filters=k, k_trigrams=1)


def test_render_filter_report_sections():
    vocab, params = _toy_setup()
    corpus = Corpus([Document(("good", "great", "movie"), "positive", None, "d")], "d")
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


def test_filter_analysis_matches_brute_force_on_ragged_corpus():
    words = ["good", "bad", "great", "movie", "plot", "dull", "fine"]
    vocab = Vocab(itos=["<pad>", "<unk>"] + words)
    rng = np.random.default_rng(5)
    E = rng.uniform(-0.5, 0.5, size=(len(vocab), 2))
    E[0] = 0.0
    E[vocab.stoi["great"]] *= 6.0  # "great" opens or fills short documents
    params = ModelParams(E=E, W=rng.normal(size=(4, 6)), b=rng.normal(0.0, 0.1, size=4),
                         F_w=rng.normal(size=(3, 4)), F_b=np.zeros(3), window=3)

    def corpus(domain, token_lists):
        return Corpus([Document(tuple(t), "neutral", None, domain) for t in token_lists], domain)

    corpora = [
        corpus("src", [["great"], ["good", "movie", "plot", "dull", "fine", "bad", "movie"],
                       ["bad", "unseen", "plot"], ["great", "good"], ["fine", "dull", "movie", "good"]]),
        corpus("tgt", [["movie", "great", "plot", "plot", "bad"], ["dull"],
                       ["good", "movie", "plot", "dull", "fine", "bad", "movie", "great", "good"]]),
    ]
    report = filter_analysis(params, vocab, corpora, k_filters=4, k_trigrams=4,
                             max_doc_len=8, eval_batch=2)
    expected = _brute_force_filter_tops(params, vocab, corpora, range(4), 4, max_doc_len=8)
    rendered = []
    for summaries in report.classes.values():
        assert sorted(fs.index for fs in summaries) == [0, 1, 2, 3]
        for fs in summaries:
            want = expected[fs.index]
            assert [hit.tokens for hit in fs.trigrams] == [triple for triple, _ in want]
            for hit, (_, (act, domains)) in zip(fs.trigrams, want):
                assert abs(hit.activation - act) <= 1e-12
                assert hit.domains == "+".join(sorted(domains))
            rendered += [hit.rendered() for hit in fs.trigrams]
    assert any(r.startswith("*-") for r in rendered) and any(r.endswith("-*") for r in rendered)
