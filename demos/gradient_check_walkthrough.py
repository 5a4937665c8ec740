"""
Checking every loss gradient against finite differences
========================================================

Each loss term used in training is differentiated by the tape in
textda.autodiff. This script rebuilds each term on a small fixed problem
and compares the tape gradients against central finite differences,
parameter by parameter. It exits with status 1 if any check fails.
"""

import sys

import numpy as np

import textda.autodiff as ad
from textda.losses import (
    bootstrap_loss,
    entropy_min_loss,
    feature_adaptation_loss,
    mmd_rbf,
    source_cross_entropy,
)
from textda.model import classify, encode_batch
from textda.data import pad_batch
from textda.rng import named_rng

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

# two 4-document batches standing in for a source and a target minibatch
docs_s = [rng.integers(2, V, size=n) for n in (5, 3, 7, 4)]
docs_t = [rng.integers(2, V, size=n) for n in (6, 4, 3, 5)]
mat_s, len_s = pad_batch(docs_s, np.arange(4))
mat_t, len_t = pad_batch(docs_t, np.arange(4))
y = np.eye(C)[rng.integers(0, C, 4)]        # gold labels, one-hot
z = np.eye(C)[rng.integers(0, C, 4)]        # ensemble targets, one-hot


def features(tape, leaves, mat, lengths):
    # dropout off: finite differences need a deterministic function
    return encode_batch(tape, leaves, mat, lengths, dropout_rate=0.0, training=False)


def classification_loss(tape, leaves):
    xi = features(tape, leaves, mat_s, len_s).xi
    return source_cross_entropy(y, classify(tape, leaves, xi))


def alignment_loss(tape, leaves):
    xi_s = features(tape, leaves, mat_s, len_s).xi
    xi_t = features(tape, leaves, mat_t, len_t).xi
    return feature_adaptation_loss(xi_s, xi_t)


def mmd_loss(tape, leaves):
    xi_s = features(tape, leaves, mat_s, len_s).xi
    xi_t = features(tape, leaves, mat_t, len_t).xi
    return mmd_rbf(xi_s, xi_t, sigma=1.0)


def entropy_loss(tape, leaves):
    xi_t = features(tape, leaves, mat_t, len_t).xi
    return entropy_min_loss(classify(tape, leaves, xi_t))


def ensemble_loss(tape, leaves):
    xi_t = features(tape, leaves, mat_t, len_t).xi
    return bootstrap_loss(z, classify(tape, leaves, xi_t))


# run the check: perturb every coordinate of every parameter by +-h and
# compare the symmetric difference quotient with the tape gradient
failed = []
for name, fn in [
    ("classification", classification_loss),
    ("feature alignment", alignment_loss),
    ("mmd baseline", mmd_loss),
    ("entropy", entropy_loss),
    ("ensemble bootstrap", ensemble_loss),
]:
    report = ad.grad_check(fn, params, h=1e-5, tol=1e-4)
    print(f"{name:20s} {report.summary()}")
    if not report.passed:
        failed.append(name)
if failed:
    sys.exit(f"gradient check failed for: {', '.join(failed)}")
