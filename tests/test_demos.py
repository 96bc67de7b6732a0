"""Every demo runs to completion against the current public API, and the
README lists each one."""
from __future__ import annotations

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(demo), run_name="__main__")


def test_readme_lists_every_demo():
    """The README's Demos block runs exactly the files in demos/, in order."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Demos\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    assert re.findall(r"^python (\S+)$", block, re.MULTILINE) == [f"demos/{demo.name}" for demo in DEMOS]
