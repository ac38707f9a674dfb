"""The README's Python examples run as written, with numpy alone."""

from __future__ import annotations

import re
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
_PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```$", re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run_in_order(monkeypatch, capsys):
    blocks = _PYTHON_BLOCK.findall(README.read_text(encoding="utf-8"))
    assert blocks
    # any import of scipy raises ImportError, as on a numpy-only install
    monkeypatch.setitem(sys.modules, "scipy", None)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["tau"] < 0.0 and namespace["spectrum"].shape == (201,)
    assert abs(namespace["r_me"] - namespace["r"]) < 1e-3 * abs(namespace["r"])
