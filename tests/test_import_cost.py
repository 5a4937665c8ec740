"""Importing textda loads only what training and scoring use."""

import os
import subprocess
import sys
from pathlib import Path

import textda


def _run_fresh(code: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(Path(textda.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_import_textda_does_not_load_scipy_stats():
    # scipy.stats takes about a second to import and only the t-test uses it
    _run_fresh("import sys, textda, textda.cli; assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded'")


SCORE_THEN_TRAIN = """
import sys
import numpy as np
import textda, textda.cli
from textda import autodiff as ad
from textda.ensemble import predict_all
from textda.losses import source_cross_entropy
from textda.model import classify, encode_batch, forward_eval, init_params
from textda.trainer import RMSProp

rng = np.random.default_rng(0)
params = init_params(rng.normal(size=(9, 4)), window=3, hidden=5, n_classes=3, rng=rng)
mat, lengths = np.array([[1, 2, 3, 4], [5, 6, 0, 0]]), np.array([4, 2])
forward_eval(params, mat, lengths)
predict_all(params, [[1, 2, 3], [4, 5], [6, 7, 8, 2]], eval_batch=2)
before = params.W.copy()
tape = ad.Tape()
leaves = params.leaves(tape)
enc = encode_batch(tape, leaves, mat, lengths, dropout_rate=0.5, rng=rng)
tape.backward(source_cross_entropy(np.eye(3)[[0, 2]], classify(tape, leaves, enc.xi)))
assert leaves['W'].grad.any() and leaves['E'].grad[1:7].any()
RMSProp(params.arrays(), lr=1e-3).step(params.arrays(), {name: leaf.grad for name, leaf in leaves.items()})
assert not np.array_equal(params.W, before)
assert not [name for name in sys.modules if name.startswith('scipy.sparse')], 'scipy.sparse loaded'
"""


def test_scoring_and_a_training_step_run_without_scipy_sparse():
    # scipy.sparse takes about 0.2 s and 22 MB to import, and neither the
    # encoder's forward nor its backward needs it
    _run_fresh(SCORE_THEN_TRAIN)
