"""The README's Quickstart runs as printed, under the suite's warning
filters (a numpy RuntimeWarning is an error)."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart():
    """The fenced python block of the README's Quickstart section."""
    section = README.read_text().split("## Quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quickstart_runs_and_shows_what_it_claims(capsys):
    ns = {}
    exec(compile(quickstart(), "README.md", "exec"), ns)
    out = capsys.readouterr().out.splitlines()
    assert out and ns["zs"].certificate["passed"]
    assert "saddle" in out and ns["rep"].classification == "saddle"
    # one cluster, the regular zeros
    assert len(ns["probe"]["clusters"]) == 1
    assert abs(ns["best"] - ns["zs"].regular).max() < 1e-9
    assert ns["report"]["passed"]
