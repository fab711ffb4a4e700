"""Smoke test: every python block of README.md runs to completion."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from dirichlet_toolkit import suites

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, re.M | re.S)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_exits_0(code):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_lists_each_suite_with_its_default_trial_count():
    paragraph = re.search(r"^`verify` runs named seeded property suites.*?\n\n", README, re.M | re.S)
    listed = {name: int(n) for name, n in re.findall(r"`([^`]+)`\s+\((\d+)", paragraph.group())}
    assert listed == {name: trials for name, (_, trials) in suites.SUITES.items()}
