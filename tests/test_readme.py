"""The README's table of resource caps matches the caps in the source."""

import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "srideals"
# A limit on how many failures a suite report records; it raises nothing.
NOT_CAPS = {"verification.MAX_RECORDED_FAILURES"}


def _source_caps() -> set[str]:
    return {
        f"{path.stem}.{name}"
        for path in SOURCE.glob("*.py")
        for name in re.findall(r"^(MAX_\w+) = ", path.read_text(), re.MULTILINE)
    } - NOT_CAPS


def _table_rows() -> list[tuple[str, str]]:
    """(constant, value cell) for each row of the README caps table."""
    readme = (ROOT / "README.md").read_text()
    return re.findall(r"^\| `(\w+\.MAX_\w+)` \| ([^|]+) \|", readme, re.MULTILINE)


def test_readme_cap_table_lists_exactly_the_caps():
    assert sorted(constant for constant, _ in _table_rows()) == sorted(_source_caps())


def test_readme_cap_table_gives_each_value():
    for constant, value in _table_rows():
        module, name = constant.split(".")
        cap = getattr(importlib.import_module(f"srideals.{module}"), name)
        assert value == f"{cap:,}", constant
