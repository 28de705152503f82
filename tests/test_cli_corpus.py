"""The command-line corpus as a gate: its output hash must be the one it records."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cli_corpus import EXPECTED

CORPUS = Path(__file__).with_name("cli_corpus.py")
SRC = CORPUS.parent.parent / "src"


@pytest.mark.skipif(sys.implementation.name != "cpython",
                    reason="EXPECTED is recorded under CPython, the interpreter the package claims")
def test_corpus_output_is_the_recorded_one():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run([sys.executable, str(CORPUS)], env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == EXPECTED
