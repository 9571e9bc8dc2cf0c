"""The one line grammar shared by the four text formats."""

import re
import shlex
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pslens import cli, iposet
from pslens.iposet import IPosetError, _tokenize, load_iposet
from pslens.tasks import (
    Delta,
    ParseError,
    TaskRecord,
    check_date,
    dump_delta,
    dump_tasks,
    is_task_id,
    load_delta,
    load_tasks,
)
from pslens.updates import UpdateSpaceError, load_update_space

GOLDEN = Path(__file__).resolve().parent.parent / "golden"

LOADERS = [
    (load_iposet, IPosetError),
    (load_update_space, UpdateSpaceError),
    (load_tasks, ParseError),
    (lambda text: load_delta(text, "plain"), ParseError),
    (lambda text: load_delta(text, "ongoing"), ParseError),
    (lambda text: load_delta(text, "today"), ParseError),
]

TAGS = "elem le id merge state update ule umerge interp task upsert delete complete postpone".split()
PIECES = TAGS + ["a", "b", "001", "true", "false", "2025-04-01", "2025-02-30", '"x y"', '""', "'"]
PIECES += ['"', "\\", "\\n", "\\q", "#", " ", "\t", "\n", "\r", "\r\n", "\u2028"]
pieces = st.lists(st.sampled_from(PIECES) | st.text(max_size=2), max_size=24)
grammar_text = st.builds(str.join, st.sampled_from(["", " "]), pieces)


@pytest.mark.parametrize("load, error", LOADERS, ids=["iposet", "update-space", "tasks", "plain", "ongoing", "today"])
@given(text=st.text() | grammar_text)
def test_loaders_raise_only_their_own_error(load, error, text):
    try:
        load(text)
    except error:
        pass


@pytest.mark.parametrize(
    "clause",
    [
        "upsert a false 'Buy milk' 2025-04-01",
        'upsert a false un"quo"ted 2025-04-01',
        'upsert a false "a"b 2025-04-01',
        'upsert a false"x" 2025-04-01',
        'upsert a false "x"2025-04-01',
        'upsert a false "a\\qb" 2025-04-01',
        'upsert a false "unclosed 2025-04-01',
        'upsert a false "x" 2025-04-01 "',
    ],
)
def test_text_outside_the_grammar_is_a_parse_error(clause):
    with pytest.raises(ParseError, match="^line 2: "):
        load_tasks(f'task b false "x" 2025-04-01\n{clause.replace("upsert", "task")}\n')
    with pytest.raises(ParseError, match="^line 2: "):
        load_delta(f"delete b\n{clause}\n", "plain")


@pytest.mark.parametrize(
    "path", sorted(GOLDEN.glob("*.tasks")) + sorted(GOLDEN.glob("*delta")), ids=lambda path: path.name
)
def test_golden_files_are_canonical(path):
    text = path.read_bytes().decode()
    if path.suffix == ".tasks":
        assert dump_tasks(load_tasks(text)) == text
    else:
        shape = "ongoing" if path.suffix == ".ogdelta" else "plain"
        assert dump_delta(load_delta(text, shape), shape) == text


# Lines on which the grammar and POSIX shell splitting agree: bare tokens
# without the shell's quoting characters, double-quoted tokens with only
# the escapes both read alike, separated by whitespace both split on.
shell_bare = st.text(st.characters(blacklist_characters="'\\\"#"), min_size=1).filter(
    lambda t: re.fullmatch(r"\S+", t)
)
shell_quoted = st.lists(st.sampled_from(["\\\\", '\\"']) | st.characters(blacklist_characters='"\\\n')).map(
    lambda parts: '"' + "".join(parts) + '"'
)
shell_space = st.text(" \t\r", min_size=1, max_size=3)


@st.composite
def shell_lines(draw):
    line = draw(st.sampled_from(["", " "]))
    for token in draw(st.lists(shell_bare | shell_quoted, max_size=5)):
        line += token + draw(shell_space)
    if draw(st.booleans()):
        line += "#" + draw(st.text(st.characters(blacklist_characters="\n")))
    return line


@given(shell_lines())
def test_command_lines_split_like_the_shell_on_their_common_subset(line):
    assert cli._tokenize is _tokenize
    assert _tokenize(line) == shlex.split(line, comments=True)


def pattern_tokenize(line: str):
    """``_tokenize`` as it reads a line holding ``"`` or ``#``: by the
    pattern alone, here applied to every line."""
    found = iposet._TOKEN.findall(line)
    if found and found[-1][1]:
        return None
    return [t if t[0] != '"' else iposet._ESCAPE.sub(lambda m: iposet._UNESCAPE[m[1]], t[1:-1]) for t, _ in found if t]


SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]  # 29 on Python 3.10-3.13
TOKEN_PIECES = SPACES + ["\\", "'", '"', "#", "a", "t0001", '"x y"', '\\"', "\\n", "é", "☕", "𝄞", "\udcff", "\ud800"]


@st.composite
def token_lines(draw):
    """Lines of spaces, quotes, backslashes, ``#``, multi-byte characters
    and lone surrogates; half of them with every ``"`` and ``#`` taken out."""
    line = "".join(draw(st.lists(st.sampled_from(TOKEN_PIECES) | st.text(max_size=2), max_size=16)))
    if draw(st.booleans()):
        line = line.replace('"', "").replace("#", "")
    return line


@example("")
@example("".join(SPACES))
@example('edit og add t1 "Café ☕" 2025-04-01 # note')
@given(token_lines())
def test_the_split_of_plain_lines_agrees_with_the_pattern(line):
    assert _tokenize(line) == pattern_tokenize(line)


def test_every_space_separates_tokens_on_both_paths():
    for c in SPACES:
        for line in (f"a{c}b{c}", f'a{c}"b"{c}', f"{c}a{c}#b"):
            assert _tokenize(line) == pattern_tokenize(line) == ["a", "b"][: 2 - ("#" in line)], repr(c)


QUOTING_IDS = ["it's", "'", "a\\b", "\\", "\\n'"]


def test_ids_with_quotes_and_backslashes_round_trip():
    record = TaskRecord(False, "x", "2025-04-01")
    table = {k: record for k in QUOTING_IDS}
    assert load_tasks(dump_tasks(table)) == table
    d = Delta(table, {k + "!" for k in QUOTING_IDS})
    assert load_delta(dump_delta(d)) == d
    og = Delta(moves={k: TaskRecord(True, "x", "2025-04-01") for k in QUOTING_IDS})
    assert load_delta(dump_delta(og, "ongoing"), "ongoing") == og


# The task writer as it was before rows were formatted in one pass, kept
# verbatim as the oracle of the canonical text.


def reference_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\r", "\\r") + '"'


def reference_record_fields(r: TaskRecord) -> str:
    return f"{'true' if r.done else 'false'} {reference_quote(r.name)} {r.due}"


def reference_dump_tasks(t) -> str:
    """Canonical task-table text: one line per task, sorted by id."""
    return "".join(f"task {k} {reference_record_fields(t[k])}\n" for k in sorted(t))


FORCED = ['"', "\\", "\n", "\r", "\t", "\u2028", "é", "日本", "\\n", '\\"', "\r\n"]
writer_names = st.lists(st.text() | st.sampled_from(FORCED), min_size=1, max_size=5).map("".join).filter(bool)
writer_ids = st.text(min_size=1, max_size=6).filter(is_task_id) | st.sampled_from(QUOTING_IDS)
writer_tables = st.dictionaries(
    writer_ids, st.builds(TaskRecord, st.booleans(), writer_names, st.sampled_from(["2025-04-01", "2024-02-29"]))
)


@given(writer_tables)
def test_task_writer_matches_the_per_row_oracle(t):
    text = dump_tasks(t)
    assert text == reference_dump_tasks(t)
    assert load_tasks(text) == t


@pytest.mark.parametrize("text", [None, 20250401, b"2025-04-01", ["2025-04-01"], {"2025-04-01": 1}, "2025-02-30"])
def test_date_check_rejects_with_one_message_before_and_after_a_valid_date(text):
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(f"date {text!r} is not a YYYY-MM-DD date")):
            check_date(text)
        assert check_date("2025-04-01") == "2025-04-01"


def test_date_check_returns_its_argument():
    day = "".join(["2025-", "04-01"])
    assert check_date(day) is day and check_date(day) is day
