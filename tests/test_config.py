"""The pytest configuration in pyproject.toml, run on a test written for it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert False
"""


def test_failing_hypothesis_test_is_reported_as_failed(tmp_path):
    # hypothesis' failure report may import a module that warns on import;
    # under filterwarnings = error that warning must not become an INTERNALERROR
    (tmp_path / "test_fails.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider"]
        + ["test_fails.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    out = done.stdout + done.stderr
    assert done.returncode == 1, out
    assert any(
        line.startswith("FAILED") and "test_always_fails" in line for line in out.splitlines()
    ), out
    assert "INTERNALERROR" not in out, out
