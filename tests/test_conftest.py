"""The shared conftest keeps a failing Hypothesis test from aborting a ``-W error`` session."""

import shutil
import subprocess
import sys
import textwrap
from pathlib import Path


def test_a_failing_given_test_fails_alone_under_w_error(tmp_path):
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path / "conftest.py")
    (tmp_path / "test_probe.py").write_text(textwrap.dedent("""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
    """))
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-W", "error", "-p", "no:cacheprovider",
                           "test_probe.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), done.stdout
