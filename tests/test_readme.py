"""The README's quick start runs, its table of resource caps matches the
caps in the source, and its list of subcommands matches the CLI."""

import argparse
import importlib
import re
from pathlib import Path

from srideals import cli

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "srideals"
README = ROOT / "README.md"
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
    return re.findall(r"^\| `(\w+\.MAX_\w+)` \| ([^|]+) \|", README.read_text(), re.MULTILINE)


def test_readme_quick_start_runs():
    # the README's one python block, run as written: every name it shows
    # must still import and every assert in it must hold
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.MULTILINE | re.DOTALL)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_cap_table_lists_exactly_the_caps():
    assert sorted(constant for constant, _ in _table_rows()) == sorted(_source_caps())


def test_readme_cap_table_gives_each_value():
    for constant, value in _table_rows():
        module, name = constant.split(".")
        cap = getattr(importlib.import_module(f"srideals.{module}"), name)
        assert value == f"{cap:,}", constant


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def test_readme_lists_exactly_the_subcommands():
    # the first sentence of the paragraph lists them, each opening a
    # backticked span such as `quasitree [--minimalize]`
    (sentence,) = re.findall(r"^Subcommands: (.*?)\.\s", README.read_text(), re.M | re.S)
    named = re.findall(r"`([a-z][a-z0-9-]*)[^`]*`", sentence)
    assert sorted(named) == sorted(_subparsers())


def test_field_and_graph6_are_on_the_readme_commands():
    def taking(flag):
        return {name for name, p in _subparsers().items() if flag in p._option_string_actions}

    # verify's --field is a budget, documented with the suites
    assert taking("--field") - {"verify"} == {"betti", "projdim", "reg"}
    assert taking("--graph6") == {"chordal", "clique-complex", "dirac"}
