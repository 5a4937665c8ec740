"""Importing textda loads only what training and scoring use."""

import os
import subprocess
import sys
from pathlib import Path

import textda


def test_import_textda_does_not_load_scipy_stats():
    # scipy.stats takes about a second to import and only the t-test uses it
    code = "import sys, textda, textda.cli; assert 'scipy.stats' not in sys.modules, 'scipy.stats loaded'"
    env = {**os.environ, "PYTHONPATH": str(Path(textda.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
