"""
Reading what the convolution filters respond to
===============================================

After training, each convolution filter is a detector over token trigrams.
This script trains a small model on a synthetic domain pair, then lists,
for each class, the trigrams that most strongly activate the filters with
the largest output weight for that class. Domain tags on each trigram show
whether a detector fires on source text, target text, or both.
"""

from textda.config import TrainConfig
from textda.data import build_vocab
from textda.evaluation import filter_analysis, render_filter_report
from textda.synth import SyntheticSpec, generate_synthetic
from textda.trainer import run_seed

spec = SyntheticSpec(n_train=2000, n_test=1000, shift=0.7, seed=11)
corpora = generate_synthetic(spec)
source = corpora["source_labeled"]
target = corpora["target_unlabeled"]

cfg = TrainConfig(variant="DAS", lambda1=5.0, lambda2=0.2, lambda3=3.0,
                  alpha=0.5, epochs=18, batch_size=50, hidden=48,
                  embedding_dim=24, vocab_size=500, n_dev=250,
                  dropout_rate=0.3, learning_rate=1e-3, seed=100)

vocab = build_vocab([source, target], cfg.vocab_size)
params = run_seed(cfg, vocab, source, target).params

# tag the scanned corpora so each trigram reports where it was seen;
# a "*" slot is the padding position at a document edge
source.domain = "src"
target.domain = "tgt"
report = filter_analysis(params, vocab, [source, target],
                         k_filters=3, k_trigrams=5)
print(render_filter_report(report))
