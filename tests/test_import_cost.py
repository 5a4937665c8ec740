"""Importing textda loads only what training and scoring use, and every
command runs with scipy out of reach."""

import os
import subprocess
import sys
from pathlib import Path

import textda


def _run_fresh(code: str, *args: str) -> None:
    env = {**os.environ, "PYTHONPATH": str(Path(textda.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def test_import_textda_does_not_load_scipy_stats():
    # textda runs on numpy alone: importing it loads no scipy module at all
    _run_fresh("import sys, textda, textda.cli\n"
               "assert not [name for name in sys.modules if name.split('.')[0] == 'scipy'], 'scipy loaded'")


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
params = init_params(rng.normal(size=(9, 4)), window=3, hidden=5, rng=rng)
mat, lengths = np.array([[1, 2, 3, 4], [5, 6, 0, 0]]), np.array([4, 2])
forward_eval(params, mat, lengths)
predict_all(params, np.array([1, 2, 3, 4, 5, 6, 7, 8, 2]), np.array([3, 2, 4]))
before = params.W.copy()
tape = ad.Tape()
leaves = params.leaves(tape)
enc = encode_batch(tape, leaves, mat, lengths, dropout_rate=0.5, rng=rng)
tape.backward(source_cross_entropy(np.eye(3)[[0, 2]], classify(tape, leaves, enc.xi)))
assert leaves['W'].grad.any() and leaves['E'].grad[1:7].any()
RMSProp(params.arrays(), lr=1e-3).step(params.arrays(), {name: leaf.grad for name, leaf in leaves.items()})
assert not np.array_equal(params.W, before)
assert not [name for name in sys.modules if name.split('.')[0] == 'scipy'], 'scipy loaded'
"""


def test_scoring_and_a_training_step_run_without_scipy_sparse():
    # scipy.sparse takes about 0.2 s and 22 MB to import, and neither the
    # encoder's forward nor its backward needs it, nor any other scipy module
    _run_fresh(SCORE_THEN_TRAIN)


EVERY_COMMAND_WITHOUT_SCIPY = """
import sys
sys.modules['scipy'] = None  # from here on, importing scipy or any of its modules raises ImportError
from pathlib import Path
from textda.cli import main

work = Path(sys.argv[1])
conf = work / 'tiny.conf'
conf.write_text('epochs = 2\\nbatch_size = 10\\nhidden = 8\\nembedding_dim = 6\\n'
                'vocab_size = 200\\nn_dev = 12\\nmax_doc_len = 50\\n', encoding='utf-8')
task, model = work / 'task', work / 'model'
commands = [
    ['synth', '--out', task, '--train-docs', '60', '--test-docs', '30', '--seed', '5',
     '--len-min', '6', '--len-max', '12'],
    ['train', '--config', conf, '--out', model, '--runs', '2', '--source', task / 'source_labeled.jsonl',
     '--target', task / 'target_unlabeled.jsonl', '--test', task / 'target_test.jsonl'],
    ['evaluate', '--checkpoint', model / 'run01' / 'model.ckpt', '--vocab', model / 'vocab.txt',
     '--test', task / 'target_test.jsonl', '--out', work / 'evaluate'],
    ['analyze-filters', '--checkpoint', model / 'run01' / 'model.ckpt', '--vocab', model / 'vocab.txt',
     '--corpus', task / 'source_labeled.jsonl', '--corpus', task / 'target_test.jsonl',
     '--k-filters', '2', '--out', work / 'filters'],
    ['gradcheck', '--out', work / 'gradcheck'],
]
for argv in commands:
    code = main([str(arg) for arg in argv])
    assert code == 0, f'textda {argv[0]} exited {code}'
"""


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # pyproject.toml declares numpy as the one runtime dependency; this holds it to that
    _run_fresh(EVERY_COMMAND_WITHOUT_SCIPY, str(tmp_path))
