"""Each narrative script in demos/ runs to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wqsim

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # the source root of the imported package on PYTHONPATH, so the child
    # finds wqsim whether or not it is installed
    src_root = Path(wqsim.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src_root)})
    assert proc.returncode == 0, proc.stderr
