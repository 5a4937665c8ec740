"""
Checking every loss gradient against finite differences
========================================================

Each loss term used in training is differentiated by the tape in
textda.autodiff. This script builds the trainer's own objective on a small
fixed problem with every term switched on, and compares the tape gradient
of each term against central finite differences, parameter by parameter.
It exits with status 1 if any check fails.
"""

import sys

import numpy as np

import textda.autodiff as ad
from textda.config import TrainConfig
from textda.data import BatchTriple
from textda.losses import LossWeights
from textda.rng import named_rng
from textda.trainer import Pools, objective

# a tiny model: 20 token types, 4-dim embeddings, 6 filters, 3 classes
V, d, h, C, window = 20, 4, 6, 3, 3
rng = named_rng(0, "demo-gradcheck")
E = rng.uniform(-0.5, 0.5, (V, d))
E[0] = 0.0  # row 0 is padding and stays zero
params = {
    "E": E,
    "W": rng.uniform(-0.5, 0.5, (h, window * d)),
    "b": rng.uniform(-0.1, 0.1, h),
    "F_w": rng.uniform(-0.5, 0.5, (C, h)),
    "F_b": rng.uniform(-0.1, 0.1, C),
}

# two 4-document batches standing in for a source and a target minibatch,
# packed one after another as the trainer packs its documents; the target
# batch (from document 4 on) also serves as the union batch the ensemble
# term reads
lengths = np.array([5, 3, 7, 4, 6, 4, 3, 5])
pools = Pools(np.concatenate([rng.integers(2, V, size=n) for n in lengths]), lengths, first=(0, 4, 4))
y = np.eye(C)[rng.integers(0, C, 4)]        # gold labels, one-hot
z = np.eye(C)[rng.integers(0, C, 4)]        # ensemble targets, one-hot
batch = BatchTriple(np.arange(4), np.arange(4), np.arange(4))
all_on = LossWeights(1.0, 1.0, 1.0)


def term(name, variant="DAS"):
    """One term ("L", "J", "Gamma" or "Omega") of the objective with every
    weight and w_t at 1. The variant picks J's distance: symmetric KL, or
    an RBF MMD of bandwidth 1 under MMD-baseline. Dropout is off, since
    finite differences need a deterministic function."""
    config = TrainConfig(variant=variant, dropout_rate=0.0, mmd_sigma=1.0)

    def loss(tape, leaves):
        return objective(tape, leaves, pools, batch, y, z, all_on, 1.0, config, None)[2][name]

    return loss


# run the check: perturb every coordinate of every parameter by +-h and
# compare the symmetric difference quotient with the tape gradient
failed = []
for name, fn in [
    ("classification", term("L")),
    ("feature alignment", term("J")),
    ("mmd baseline", term("J", "MMD-baseline")),
    ("entropy", term("Gamma")),
    ("ensemble bootstrap", term("Omega")),
]:
    report = ad.grad_check(fn, params)
    print(f"{name:20s} {report.summary()}")
    if not report.passed:
        failed.append(name)
if failed:
    sys.exit(f"gradient check failed for: {', '.join(failed)}")
