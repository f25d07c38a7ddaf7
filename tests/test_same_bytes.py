"""tools/same_bytes.py, run with one tree as both parent and change."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_a_tree_writes_the_same_bytes_as_itself():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "same_bytes.py"),
                           str(ROOT), str(ROOT)], capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    # 3 training runs and 2 eval runs, 4 artifacts each
    assert done.stdout.endswith("\n20 identical, 0 different\n")
