"""The README's code runs, and its command table names what the CLI accepts."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import pslens.cli
from pslens.cli import CommandError, new_session, run_command

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def test_the_readme_python_blocks_run_in_order_in_one_namespace():
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def compared_with(function, name):
    """The string constants that ``function`` compares the variable ``name`` with by ``==``."""
    tree = ast.parse(inspect.getsource(function))
    return {
        node.comparators[0].value
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Name)
        and node.left.id == name
        and isinstance(node.ops[0], ast.Eq)
        and isinstance(node.comparators[0], ast.Constant)
    }


COMMANDS = compared_with(pslens.cli.run_command, "cmd")
ACTIONS = compared_with(pslens.cli._parse_edit, "action")


def named(table):
    """The commands and the ``edit`` actions that a command table's lines name."""
    rows = [line.split() for line in table]
    return {row[0] for row in rows}, {row[2] for row in rows if row[0] == "edit"}


def readme_table():
    return next(
        block.splitlines()
        for block in re.findall(r"^```\n(.*?)^```$", README, re.M | re.S)
        if block.startswith("load <file>")
    )


def docstring_table():
    return [line for line in pslens.cli.__doc__.splitlines() if re.match(r"    [a-z]", line)]


@pytest.mark.parametrize("table", [readme_table, docstring_table], ids=["readme", "cli-docstring"])
def test_the_command_tables_name_exactly_what_run_command_accepts(table):
    assert named(table()) == (COMMANDS, ACTIONS)


def test_run_command_accepts_the_words_its_comparisons_name():
    assert COMMANDS == {"load", "show", "edit", "put", "reset", "save", "laws"}
    assert ACTIONS == {"add", "del", "complete", "postpone", "file"}
    session = new_session("elaborated", "2025-04-01")
    for line in [*COMMANDS, *(f"edit og {action}" for action in ACTIONS)]:
        try:
            run_command(session, line)
        except CommandError as exc:
            assert "unknown" not in str(exc), line
    for line, error in [("wibble", "unknown command 'wibble'"), ("edit og wibble", "unknown edit action 'wibble'")]:
        with pytest.raises(CommandError, match=f"^{error}$"):
            run_command(session, line)
