"""The README's library quickstart runs as written, and its lists match
the code."""

import re
from dataclasses import fields
from pathlib import Path

from swipt_relay import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_runs():
    text = README.read_text(encoding="utf-8")
    quickstart = text.split("## Library quickstart", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", quickstart, flags=re.DOTALL)
    assert blocks, "the quickstart section has no python block"
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert namespace["p_heuristic"] - 1e-9 <= namespace["p_bound"] <= 1.0


def test_config_keys_are_the_experiment_fields():
    text = README.read_text(encoding="utf-8")
    listed = re.search(
        r"Keys are the `ExperimentConfig` field names \((.*?)\)\.", text, re.DOTALL
    )
    assert listed, "the config file section lists no keys"
    keys = re.findall(r"`(\w+)`", listed.group(1))
    assert keys == [f.name for f in fields(ExperimentConfig)]
