"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from typing import NamedTuple

import pytest

from boxlab import boxes


@pytest.fixture
def fresh_python(tmp_path):
    """Run code in a fresh interpreter that imports boxlab from this source
    tree, in a temporary directory, and return its stripped stdout."""
    src = os.path.dirname(os.path.dirname(boxes.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def run(code):
        return subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, check=True,
                              env=env, cwd=tmp_path).stdout.strip()
    return run


class Walk(NamedTuple):
    """One ``boxes.blocks`` call: its arguments and the slices taken."""

    n: int
    width: int
    cap: int | None
    slices: list

    @property
    def sizes(self):
        """The number of items of each block taken."""
        return [block.stop - block.start for block in self.slices]


@pytest.fixture
def block_walks(monkeypatch):
    """Every ``boxes.blocks`` walk of the test, in call order, each with the
    slices its kernel took so far."""
    walks = []
    blocks = boxes.blocks

    def spy(n, width, cap=None):
        walk = Walk(n, width, cap, [])
        walks.append(walk)
        for block in blocks(n, width, cap):
            walk.slices.append(block)
            yield block

    monkeypatch.setattr(boxes, "blocks", spy)
    return walks
