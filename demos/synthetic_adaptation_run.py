"""
Adapting a classifier across a synthetic domain shift
=====================================================

Builds a three-class task where 70 percent of the sentiment-bearing tokens
differ between the source and target domain, then trains the same network
twice: once on source labels alone, and once with the adaptation losses
(feature alignment, entropy minimization, ensemble bootstrapping) switched
on. Labels from the target domain are used only for the final score.
"""

from textda.config import TrainConfig
from textda.data import build_vocab
from textda.synth import SyntheticSpec, generate_synthetic
from textda.trainer import run_seed

spec = SyntheticSpec(n_train=2000, n_test=1000, shift=0.7, seed=11)
corpora = generate_synthetic(spec)
source = corpora["source_labeled"]
target = corpora["target_unlabeled"]
test = corpora["target_test"]
print(f"source {len(source)} docs, target {len(target)} docs (labels unused), "
      f"test {len(test)} docs")

shared = dict(epochs=18, batch_size=50, hidden=48, embedding_dim=24,
              vocab_size=500, n_dev=250, dropout_rate=0.3,
              learning_rate=1e-3, seed=100)
configs = {
    "source only": TrainConfig(variant="NaiveNN", **shared),
    "adapted": TrainConfig(variant="DAS", lambda1=5.0, lambda2=0.2,
                           lambda3=3.0, alpha=0.5, **shared),
}

for name, cfg in configs.items():
    vocab = build_vocab([source, target], cfg.vocab_size)
    run = run_seed(cfg, vocab, source, target, test)

    if cfg.variant == "DAS":
        print(f"\n{name}: loss terms by epoch "
              f"(J aligns features, Gamma is entropy, Omega tracks the ensemble)")
        for m in run.history.epochs:
            print(f"  epoch {m.epoch:2d}  L={m.L:7.4f}  J={m.J:8.5f}  "
                  f"Gamma={m.Gamma:7.4f}  Omega={m.Omega:7.4f}  "
                  f"dev_error={m.dev_error:.3f}")
    print(f"{name}: target accuracy {run.accuracy:.3f}, "
          f"macro F1 {run.macro_f1:.3f} (best epoch {run.best_epoch})")
