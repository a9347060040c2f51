"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    quickstart = text.split("## Library quickstart", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", quickstart, flags=re.DOTALL)
    assert blocks, "the quickstart section has no python block"
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["p_heuristic"] - 1e-9 <= namespace["p_bound"] <= 1.0
