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
from textda.model import forward_eval, init_params

rng = np.random.default_rng(0)
params = init_params(rng.normal(size=(9, 4)), window=3, hidden=5, n_classes=3, rng=rng)
forward_eval(params, np.array([[1, 2, 3, 4], [5, 6, 0, 0]]), np.array([4, 2]))
predict_all(params, [[1, 2, 3], [4, 5], [6, 7, 8, 2]], eval_batch=2)
assert 'scipy.sparse' not in sys.modules, 'scoring loaded scipy.sparse'
tape = ad.Tape()
leaves = params.leaves(tape)
Z = ad.conv_windows(leaves['E'], leaves['W'], leaves['b'], np.array([[0, 1, 2], [1, 2, 0]]))
tape.backward(ad.vsum(ad.mul(Z, Z)))
assert 'scipy.sparse' in sys.modules and leaves['W'].grad.any() and leaves['E'].grad[1:3].any()
"""


def test_scoring_runs_without_scipy_sparse_and_a_backward_still_loads_it():
    # scipy.sparse takes about 0.2 s to import and only the convolution's backward uses it
    _run_fresh(SCORE_THEN_TRAIN)
