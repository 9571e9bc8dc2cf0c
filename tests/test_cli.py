"""Command front end: sessions, batch determinism, exit codes."""

import collections
import io
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pslens.cli
import pslens.tasks
from pslens.cli import CommandError, LawSuiteFailure, main, new_session, run_command, run_lines
from pslens.tasks import Delta, TaskRecord, dt_domain, dtdt_domain, dtog_domain, dump_tasks, load_tasks, task_pipeline

REPO = Path(__file__).resolve().parent.parent
GOLDEN = REPO / "golden"

TODAY = "2025-04-01"


@pytest.fixture
def workdir(tmp_path):
    shutil.copytree(GOLDEN, tmp_path / "golden")
    return tmp_path


def run_cli(args, cwd, extra_env=()):
    # the child runs in a temporary directory, so a relative PYTHONPATH
    # entry such as ``src`` would not resolve there
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    env.update(extra_env)
    return subprocess.run(
        [sys.executable, "-m", "pslens.cli", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


# ---------------------------------------------------------------------------
# in-process session behavior
# ---------------------------------------------------------------------------


def load_initial(session):
    session, out = run_command(session, f"load {GOLDEN / 'source_initial.tasks'}")
    assert out == ["loaded 3 task(s)"]
    return session


def test_load_show_roundtrip():
    session = load_initial(new_session("plain", TODAY))
    _, out = run_command(session, "show")
    text = "\n".join(out)
    assert 'task 003 false "Jog" 2025-04-01' in text
    assert "ongoing view:" in text and "today view (2025-04-01):" in text
    assert "task 002" not in text.split("ongoing view:")[1].split("today view")[0]


def test_show_keeps_a_name_with_a_line_separator_on_one_line():
    session = new_session("plain", TODAY, {"001": TaskRecord(False, "x\u2028y", TODAY)})
    _, out = run_command(session, "show")
    # the task is ongoing and due today, so the source and both views list it
    assert out.count('  task 001 false "x\u2028y" 2025-04-01') == 3


def test_script_lines_end_at_newline_only(tmp_path):
    script, saved = tmp_path / "separator.script", tmp_path / "saved.tasks"
    script.write_text(f'edit og add 001 "x\u2028y" 2025-04-01\nput\nsave {saved}\n', encoding="utf-8")
    assert main(["--script", str(script)]) == 0
    assert load_tasks(saved.read_text(encoding="utf-8")) == {"001": TaskRecord(False, "x\u2028y", TODAY)}


def test_load_and_edit_file_keep_a_lone_carriage_return_in_a_name(tmp_path):
    tasks, delta = tmp_path / "lone.tasks", tmp_path / "lone.delta"
    tasks.write_bytes(b'task a false "x\ry" 2025-04-01\n')
    delta.write_bytes(b'upsert b false "u\rv" 2025-04-01\n')
    session, out = run_command(new_session("plain", TODAY), f"load {tasks}")
    assert out == ["loaded 1 task(s)"] and session.source == {"a": TaskRecord(False, "x\ry", TODAY)}
    session, _ = run_command(session, f"edit og file {delta}")
    assert session.staged_og == Delta({"b": TaskRecord(False, "u\rv", TODAY)})


def test_edit_file_refuses_a_delta_outside_the_view_domain_at_the_edit(tmp_path):
    delta = tmp_path / "tomorrow.delta"
    delta.write_text('upsert b false "x" 2025-04-02\n')
    with pytest.raises(CommandError, match="the dt delta is outside the due-2025-04-01-view domain"):
        run_command(new_session("elaborated", TODAY), f"edit dt file {delta}")
    # plain deltas live in the source's domain: the edit stages, and the put refuses
    session, out = run_command(new_session("plain", TODAY), f"edit dt file {delta}")
    assert out == ["staged for dt view"]
    _, out = run_command(session, "put")
    assert "GuardFailed" in out[0] and out[1:] == ["session unchanged"]


def test_crlf_task_files_and_scripts_still_work(tmp_path):
    tasks, script, saved = tmp_path / "crlf.tasks", tmp_path / "crlf.script", tmp_path / "saved.tasks"
    tasks.write_bytes(b'task a false "x" 2025-04-01\r\ntask b true "y" 2025-04-02\r\n')
    script.write_bytes(f"load {tasks}\r\nedit og del b\r\nput\r\nsave {saved}\r\n".encode())
    assert main(["--script", str(script)]) == 0
    assert saved.read_bytes() == b'task a false "x" 2025-04-01\n'


def test_main_script_prints_to_the_current_stdout(tmp_path, capsys):
    script = tmp_path / "show.script"
    script.write_text("show\n")
    assert main(["--script", str(script)]) == 0
    empty = "  (empty)\n"
    assert capsys.readouterr().out == f"source:\n{empty}ongoing view:\n{empty}today view ({TODAY}):\n{empty}"


def test_script_errors_name_their_line(tmp_path, capsys, monkeypatch):
    script = tmp_path / "bad.script"
    for text, error in [
        ("show\nwibble\n", "line 2: unknown command 'wibble'"),
        ('# header\n\nedit og add "x 2025-04-01\n', "line 3: cannot parse 'edit og add \"x 2025-04-01'"),
    ]:
        script.write_text(text)
        assert main(["--script", str(script)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
    monkeypatch.setattr("sys.stdin", io.StringIO('wibble\nedit og add "x\nshow\n'))
    assert main([]) == 0
    shown = ["source:", "  (empty)", "ongoing view:", "  (empty)", f"today view ({TODAY}):", "  (empty)"]
    expected = ["error: unknown command 'wibble'", "error: cannot parse 'edit og add \"x'", *shown]
    assert capsys.readouterr().out.splitlines() == expected


def test_unreadable_files_are_command_errors(tmp_path, capsys):
    binary, script = tmp_path / "binary.tasks", tmp_path / "binary.script"
    binary.write_bytes(b"\xff\xfe\n")
    for line in (f"load {binary}", f"edit og file {binary}"):
        with pytest.raises(CommandError, match="can't decode byte 0xff"):
            run_command(new_session("plain", TODAY), line)
    for path in (binary, tmp_path / "missing.script"):
        assert main(["--script", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_a_name_utf8_cannot_hold_fails_the_save_and_leaves_the_target_as_it_was(tmp_path):
    # a lone surrogate, as one invalid byte on interactive stdin decodes
    session = run_lines(new_session("plain", TODAY), ['edit og add a "caf\udcff" 2025-04-01', "put"], out=io.StringIO())
    target, missing = tmp_path / "kept.tasks", tmp_path / "missing.tasks"
    target.write_bytes(b'task old false "x" 2025-04-01\n')
    for path in (target, missing):
        with pytest.raises(CommandError, match=f"^{re.escape(str(path))}: 'utf-8' codec can't encode"):
            run_command(session, f"save {path}")
    assert target.read_bytes() == b'task old false "x" 2025-04-01\n'
    assert not missing.exists()


def test_a_block_holding_a_lone_surrogate_keeps_its_str_until_a_put_renames_the_task(tmp_path):
    """Each block keeps its lines in UTF-8, except one whose name UTF-8
    cannot hold, which keeps the joined str: ``show`` renders it, and ``save``
    fails with the error of encoding that block and leaves the target as it
    was.  Once a ``put`` renames the task, the saved block is bytes again."""
    source = {f"t{i:03d}": TaskRecord(i % 2 == 0, f"task {i}", TODAY) for i in range(300)}
    source["t150"] = TaskRecord(False, "caf\udcff", TODAY)
    session = new_session("plain", TODAY, source)
    kinds = [type(data) for _, _, data in session.text.blocks]
    assert len(kinds) == 3 and kinds.count(str) == 1
    ids, lengths, data = session.text.blocks[kinds.index(str)]
    i = ids.index("t150")
    at = sum(lengths[:i])
    assert data[at : at + lengths[i]] == 'task t150 false "caf\udcff" 2025-04-01\n'

    _, out = run_command(session, "show")
    assert out[1 : 1 + len(source)] == ["  " + line for line in dump_tasks(source).split("\n")[:-1]]
    target = tmp_path / "kept.tasks"
    target.write_bytes(b'task old false "x" 2025-04-01\n')
    with pytest.raises(UnicodeEncodeError) as encoding:
        data.encode()
    with pytest.raises(CommandError) as failed:
        run_command(session, f"save {target}")
    assert str(failed.value) == f"{target}: {encoding.value}"
    assert target.read_bytes() == b'task old false "x" 2025-04-01\n'

    session = run_lines(session, ['edit og add t150 "café ☕" 2025-04-01', "put", f"save {target}"], out=io.StringIO())
    assert {type(data) for _, _, data in session.text.blocks} == {bytes}
    assert target.read_bytes() == dump_tasks(session.source).encode()
    assert load_tasks(target.read_text(encoding="utf-8")) == session.source


def test_multibyte_names_survive_a_save_and_a_load(tmp_path):
    target = tmp_path / "out.tasks"
    session = load_initial(new_session("elaborated", TODAY))
    lines = ['edit og add 004 "Café ☕" 2025-04-02', 'edit dt add 005 "日本 𝄞" 2025-04-01', "put", f"save {target}"]
    session = run_lines(session, lines, out=io.StringIO())
    saved = target.read_bytes()
    assert saved == dump_tasks(session.source).encode() and "Café ☕".encode() in saved and "日本 𝄞".encode() in saved
    session = run_lines(session, [f"load {target}", 'edit og add 001 "Buy oat milk" 2025-04-02', "put"], out=io.StringIO())
    run_command(session, f"save {target}")
    assert target.read_bytes() == dump_tasks(session.source).encode()
    assert load_tasks(target.read_text(encoding="utf-8")) == session.source
    assert session.source["004"] == TaskRecord(False, "Café ☕", "2025-04-02")


@pytest.mark.parametrize("old", [None, b"", b"x" * 10, b"x" * 10_000], ids=["missing", "empty", "short", "long"])
def test_save_leaves_exactly_the_canonical_text_whatever_the_target_held(tmp_path, old):
    target = tmp_path / "out.tasks"
    if old is not None:
        target.write_bytes(old)
    session = load_initial(new_session("plain", TODAY))
    for lines in ([], ["edit og del 002", "edit og del 003", "put"], ['edit og add 004 "Buy egg" 2025-04-01', "put"]):
        session = run_lines(session, [*lines, f"save {target}"], out=io.StringIO())
        assert target.read_bytes() == dump_tasks(session.source).encode()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_save_to_a_pipe_writes_the_text():
    session = load_initial(new_session("plain", TODAY))
    r, w = os.pipe()
    with open(r, "rb") as reader:
        with open(w, "wb"):
            run_command(session, f"save /dev/fd/{w}")
        assert reader.read() == dump_tasks(session.source).encode()


WIDE_SOURCE = {f"t{i:04d}": TaskRecord(i % 3 == 0, ("task", "Café ☕", "日本 𝄞")[i % 3] + f" {i}", TODAY) for i in range(1100)}
WIDE_EDITS = ['edit og add t0004 "renamed ☕" 2025-04-01', "edit og del t0005", 'edit og add t0000a "new" 2025-04-01', "put"]


def test_a_save_of_more_blocks_than_one_writev_takes_writes_them_all_and_cuts_a_longer_file(tmp_path):
    """With one line a block, 1100 rows are more blocks than one ``os.writev``
    call takes: the save makes several calls of at most ``_IOV`` buffers,
    writes exactly the canonical text and cuts off the rest of a longer file."""
    target, calls, writev = tmp_path / "out.tasks", [], os.writev
    target.write_bytes(b"x" * 200_000)

    def counted(fd, buffers):
        calls.append(len(buffers))
        return writev(fd, buffers)

    with mock.patch.object(pslens.tasks, "_BLOCK", 1), mock.patch.object(os, "writev", counted):
        session = run_lines(new_session("plain", TODAY, WIDE_SOURCE), [*WIDE_EDITS, f"save {target}"], out=io.StringIO())
    assert len(session.text.blocks) == len(session.source) > pslens.cli._IOV
    assert len(calls) == 2 and max(calls) == pslens.cli._IOV
    assert target.read_bytes() == dump_tasks(session.source).encode()


@pytest.mark.parametrize("most", [7, 4000, 9000])
def test_short_writes_go_on_from_the_first_byte_not_written(tmp_path, most):
    """An ``os.writev`` that writes at most ``most`` bytes of each request,
    stopping inside a buffer or past the end of one: the save still leaves
    exactly the canonical text, over a longer file too."""
    target = tmp_path / "out.tasks"
    target.write_bytes(b"x" * 200_000)

    def short(fd, buffers):
        return os.write(fd, b"".join(buffers)[:most])

    session = run_lines(new_session("plain", TODAY, WIDE_SOURCE), WIDE_EDITS, out=io.StringIO())
    with mock.patch.object(os, "writev", short):
        session, _ = run_command(session, f"save {target}")
    assert len(session.text.blocks) > 1
    assert target.read_bytes() == dump_tasks(session.source).encode()


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_save_closes_the_target_whether_its_write_fails_or_not(tmp_path):
    target = tmp_path / "out.tasks"
    session = load_initial(new_session("plain", TODAY))
    before = sorted(os.listdir("/dev/fd"))

    def full(fd, buffers):
        raise OSError(28, "No space left on device")

    with mock.patch.object(os, "writev", full), pytest.raises(CommandError, match="No space left on device"):
        run_command(session, f"save {target}")
    run_command(session, f"save {target}")
    assert sorted(os.listdir("/dev/fd")) == before
    assert target.read_bytes() == dump_tasks(session.source).encode()


def test_files_are_utf8_under_an_ascii_locale(tmp_path):
    script = tmp_path / "cafe.script"
    script.write_bytes('edit og add a "café" 2025-04-01\nput\nsave out.tasks\nload out.tasks\nsave again.tasks\n'.encode())
    ascii_locale = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONIOENCODING": ""}
    result = run_cli(["--script", str(script)], tmp_path, ascii_locale)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[-2:] == ["loaded 1 task(s)", "saved again.tasks"]
    for name in ("out.tasks", "again.tasks"):
        assert (tmp_path / name).read_bytes() == 'task a false "café" 2025-04-01\n'.encode("utf-8")


def test_output_the_terminal_cannot_encode_is_escaped_under_an_ascii_locale(tmp_path):
    script = tmp_path / "show.script"
    script.write_bytes('edit og add a "café" 2025-04-01\nput\nshow\n'.encode())
    ascii_locale = {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C", "PYTHONIOENCODING": ""}
    result = run_cli(["--script", str(script)], tmp_path, ascii_locale)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[-6:] == [
        "source:",
        '  task a false "caf\\xe9" 2025-04-01',
        "ongoing view:",
        '  task a false "caf\\xe9" 2025-04-01',
        f"today view ({TODAY}):",
        '  task a false "caf\\xe9" 2025-04-01',
    ]


def test_single_quotes_are_ordinary_characters():
    session = new_session("plain", TODAY)
    with pytest.raises(CommandError, match="^usage: edit og\\|dt add <id> <name> <due>$"):
        run_command(session, "edit og add 'x y' \"x\" 2025-04-01")
    session, _ = run_command(session, "edit og add it's 'x' 2025-04-01")
    assert session.staged_og == Delta({"it's": TaskRecord(False, "'x'", TODAY)})


def test_ids_with_quotes_and_backslashes_survive_edit_save_and_load(tmp_path):
    saved = tmp_path / "saved.tasks"
    lines = ["edit og add it's \"x\" 2025-04-01", 'edit og add a\\b "y" 2025-04-01', "put", f"save {saved}"]
    session = run_lines(new_session("plain", TODAY), lines, out=io.StringIO())
    assert set(session.source) == {"it's", "a\\b"}
    reloaded, _ = run_command(new_session("plain", TODAY), f"load {saved}")
    assert reloaded.source == session.source


def test_edit_and_put_updates_source_and_views():
    session = load_initial(new_session("plain", TODAY))
    session, _ = run_command(session, 'edit og add 004 "Buy egg" 2025-04-01')
    session, out = run_command(session, "put")
    assert any("og delta preserved in refreshed view: yes" in line for line in out)
    assert any("dt delta preserved in refreshed view: yes" in line for line in out)
    assert session.source == load_tasks((GOLDEN / "source_after_insert.tasks").read_text())
    assert session.staged_og == Delta()  # staging cleared after a successful put


def test_a_session_keeps_its_source_when_the_caller_changes_the_dict_it_passed(tmp_path):
    one = TaskRecord(False, "one", TODAY)
    source = {"a": one}
    session = new_session("plain", TODAY, source)
    _, shown = run_command(session, "show")
    source["b"] = TaskRecord(False, "two", TODAY)
    assert len(session.source) == 1 and session.source == {"a": one}
    assert run_command(session, "show")[1] == shown
    saved = tmp_path / "saved.tasks"
    run_command(session, f"save {saved}")
    assert saved.read_bytes() == dump_tasks(session.source).encode() == dump_tasks({"a": one}).encode()


def test_put_with_nothing_staged_is_identity():
    session = load_initial(new_session("plain", TODAY))
    before = session.source
    session, _ = run_command(session, "put")
    assert session.source == before


def test_failed_put_reports_and_leaves_session_unchanged():
    session = load_initial(new_session("plain", TODAY))
    session, _ = run_command(session, 'edit og add 005 "Paint" 2025-04-03')
    session, _ = run_command(session, "edit dt del 005")
    after, out = run_command(session, "put")
    assert after is session
    assert any("MergeConflict" in line for line in out)
    assert any("session unchanged" in line for line in out)


def test_conflicting_edits_rejected_at_staging():
    for variant, first, second in [
        ("plain", 'edit og add 005 "Paint" 2025-04-03', "edit og del 005"),
        ("elaborated", 'edit og add 005 "Paint" 2025-04-03', "edit og del 005"),
        ("elaborated", "edit og complete 003", "edit og del 003"),
    ]:
        session = load_initial(new_session(variant, TODAY))
        session, _ = run_command(session, first)
        with pytest.raises(CommandError, match="^conflicting edits staged for the og view$"):
            run_command(session, second)


@pytest.mark.parametrize(
    "line",
    ['edit og add "" "x" 2025-04-01', 'edit dt add "a b" "x" 2025-04-01', 'edit og del "#a"', 'edit dt del ""'],
)
def test_bad_id_is_command_error(line):
    session = load_initial(new_session("elaborated", TODAY))
    with pytest.raises(CommandError, match="is not a bare token"):
        run_command(session, line)


def test_dt_add_must_be_due_today():
    session = load_initial(new_session("plain", TODAY))
    with pytest.raises(CommandError):
        run_command(session, 'edit dt add 005 "Paint" 2025-04-03')


def test_elaborated_complete_and_postpone():
    session = load_initial(new_session("elaborated", TODAY))
    session, _ = run_command(session, "edit og complete 003")
    session, _ = run_command(session, "edit dt postpone 002 2025-04-05")
    session, out = run_command(session, "put")
    assert any("preserved in refreshed view: yes" in line for line in out)
    assert session.source["003"].done
    assert session.source["002"].due == "2025-04-05"


def test_complete_requires_elaborated():
    session = load_initial(new_session("plain", TODAY))
    with pytest.raises(CommandError):
        run_command(session, "edit og complete 003")


def test_reset_drops_staging():
    session = load_initial(new_session("plain", TODAY))
    session, _ = run_command(session, 'edit og add 006 "x" 2025-04-01')
    session, _ = run_command(session, "reset")
    assert session.staged_og == Delta()


def test_laws_command_runs_suite():
    session = new_session("plain", TODAY)
    _, out = run_command(session, "laws bad")
    assert out and all("[ok]" in line for line in out)
    with pytest.raises(CommandError, match="unknown fixture 'no-such-fixture'"):
        run_command(session, "laws no-such-fixture")


def test_laws_with_an_unknown_fixture_is_a_script_error(tmp_path, capsys):
    script = tmp_path / "laws.script"
    script.write_text("show\nlaws bad wibble\n")
    assert main(["--script", str(script)]) == 1
    assert capsys.readouterr().err == "error: line 2: unknown fixture 'wibble'\n"


def test_laws_failure_exit_code(monkeypatch, capsys):
    import pslens.cli as cli

    monkeypatch.setattr(cli, "run_fixture_suite", lambda names=None: (["boom [UNEXPECTED]"], False))
    with pytest.raises(LawSuiteFailure):
        run_command(new_session("plain", TODAY), "laws")
    assert cli.main(["--laws"]) == 2
    monkeypatch.setattr("sys.stdin", io.StringIO("laws\nshow extra\n"))  # printed, and the loop goes on
    assert cli.main([]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == ["boom [UNEXPECTED]", "error: usage: show"]


#: The ``pslens.cli`` names a traced bench run swaps for span wrappers.
TRACED_NAMES = ("load_tasks", "load_delta", "dump_tasks", "dt_domain", "dtog_domain", "dtdt_domain", "task_pipeline")


def test_a_session_calls_the_names_a_traced_run_wraps_and_reads_back(monkeypatch):
    """Each of ``TRACED_NAMES``, replaced with a counting wrapper, is called
    by a short session in one variant or the other, and the session's
    ``source``, ``staged_og``, ``staged_dt`` and ``views`` read back what
    the pipeline gives: a rename leaves a wrapper uncalled or an attribute
    missing."""
    import pslens.cli as cli

    calls = collections.Counter()

    def counting(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)

        return wrapper

    for name in TRACED_NAMES:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    cli._pipeline.cache_clear()  # so the pipelines are built through the wrapped task_pipeline
    try:
        for variant in ("plain", "elaborated"):
            session = cli.new_session(variant, TODAY)
            lines = [f"load {GOLDEN / 'source_initial.tasks'}", f"edit og file {GOLDEN / 'delta_insert_egg.delta'}"]
            for line in lines + [f'edit dt add 005 "Stretch" {TODAY}']:
                session, _ = cli.run_command(session, line)
            egg, stretch = TaskRecord(False, "Buy egg", TODAY), TaskRecord(False, "Stretch", TODAY)
            assert (session.staged_og, session.staged_dt) == (Delta({"004": egg}), Delta({"005": stretch}))
            reference = task_pipeline(variant, TODAY)
            expected = reference.put(session.source, (session.staged_og, session.staged_dt))
            session, out = cli.run_command(session, "put")
            assert out[0] == "source now has 5 task(s)"
            assert session.source == expected and session.views == reference.get(expected)
            assert cli.run_command(session, "show")[1][0] == "source:"
    finally:
        cli._pipeline.cache_clear()
    assert set(calls) == set(TRACED_NAMES)


def test_unknown_command():
    with pytest.raises(CommandError):
        run_command(new_session("plain", TODAY), "frobnicate")


@pytest.mark.parametrize(
    "variant, line, message",
    [
        ("plain", "load {tmp}/bad.tasks", "{tmp}/bad.tasks: line 2: cannot parse 'task b false'"),
        ("plain", "edit og file {tmp}/bad.delta", "{tmp}/bad.delta: line 1: cannot parse 'upsert b'"),
        ("elaborated", "edit dt file {tmp}/bad.delta", "{tmp}/bad.delta: line 1: cannot parse 'upsert b'"),
        ("plain", "edit og", "usage: edit og|dt add|del|complete|postpone|file ..."),
        ("plain", 'edit xx add 006 "x" 2025-04-01', "usage: edit og|dt add|del|complete|postpone|file ..."),
        ("plain", "edit og del", "usage: edit og|dt del <id>"),
        ("elaborated", "edit og complete", "usage: edit og complete <id>"),
        ("elaborated", "edit dt postpone 003", "usage: edit dt postpone <id> <new-due>"),
        ("elaborated", "edit dt postpone 003 2025-04-01", "postponing needs a different due date"),
        ("elaborated", "edit og complete 002", "no task '002' in the ongoing view"),
        ("plain", "edit og file", "usage: edit og|dt file <path>"),
        ("plain", "edit og frob 003", "unknown edit action 'frob'"),
        ("plain", "load", "usage: load <file>"),
        ("plain", "show extra", "usage: show"),
        ("plain", "put x", "usage: put"),
        ("plain", "reset extra", "usage: reset"),
        ("plain", "save", "usage: save <file>"),
        ("plain", "save {tmp}/missing/out.tasks", "[Errno 2] No such file or directory: '{tmp}/missing/out.tasks'"),
    ],
)
def test_command_errors_give_their_exact_message(tmp_path, variant, line, message):
    (tmp_path / "bad.tasks").write_text('task a false "x" 2025-04-01\ntask b false\n')
    (tmp_path / "bad.delta").write_text("upsert b\n")
    session = load_initial(new_session(variant, TODAY))
    with pytest.raises(CommandError) as info:
        run_command(session, line.format(tmp=tmp_path))
    assert str(info.value) == message.format(tmp=tmp_path)


def test_a_law_suite_failure_in_a_script_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("pslens.cli.run_fixture_suite", lambda names=None: (["boom [UNEXPECTED]"], False))
    script = tmp_path / "laws.script"
    script.write_text("show\nlaws\n")
    assert main(["--script", str(script)]) == 2
    assert capsys.readouterr().err == "boom [UNEXPECTED]\n"


def test_run_lines_threads_sessions():
    session = new_session("plain", TODAY)
    out = []

    class Sink:
        def write(self, s):
            out.append(s)

    session = run_lines(session, [f"load {GOLDEN / 'source_initial.tasks'}", "put"], out=Sink())
    assert session.source  # loaded and propagated


DUES = [TODAY, "2025-04-02", "2025-04-03"]
SIDES = st.sampled_from(["og", "dt"])
# a few ids, so edits meet again: t0000..t0019 are in every table, new20.. are fresh
KEYS = st.integers(0, 24).map(lambda i: f"t{i:04d}" if i < 20 else f"new{i}")
SESSION_STEPS = st.one_of(
    st.tuples(st.just("add"), SIDES, KEYS, st.sampled_from(DUES)),
    st.tuples(st.just("del"), SIDES, KEYS),
    st.tuples(st.just("complete"), KEYS),
    st.tuples(st.just("postpone"), KEYS, st.sampled_from(DUES[1:])),
    st.just(("put",)),
    st.just(("reset",)),
    st.just(("save",)),
)
# the fields each command leaves as they were, kept as the very same objects
KEPT = {
    "edit og": ("variant", "today", "source", "staged_dt", "text"),
    "edit dt": ("variant", "today", "source", "staged_og", "text"),
    "put": ("variant", "today", "text"),
    "reset": ("variant", "today", "source", "text"),
    "save": ("variant", "today", "source", "staged_og", "staged_dt"),
}


@settings(max_examples=30, deadline=None)
@given(
    variant=st.sampled_from(["plain", "elaborated"]),
    rows=st.integers(100, 1000),
    seed=st.integers(0, 2**16),
    steps=st.lists(SESSION_STEPS, max_size=25),
)
# two saves, each after a put that changes the source
@example(
    variant="plain",
    rows=100,
    seed=0,
    steps=[("add", "og", "new20", TODAY), ("put",), ("save",), ("del", "og", "new20"), ("put",), ("save",)],
)
# two puts on different ids between two saves: the second save patches for both
@example(
    variant="plain",
    rows=100,
    seed=0,
    steps=[("save",), ("add", "og", "new20", TODAY), ("put",), ("del", "dt", "t0001"), ("put",), ("save",)],
)
def test_preserved_lines_are_le_of_the_staged_deltas_after_every_put(tmp_path_factory, variant, rows, seed, steps):
    """Each successful ``put`` prints, per view, whether the delta staged
    before it is below the full view of the new source.  Every command
    keeps the session fields it does not change as the same objects."""
    domains = {"plain": (dt_domain(), dt_domain()), "elaborated": (dtog_domain(), dtdt_domain(TODAY))}[variant]
    saved = tmp_path_factory.mktemp("steps") / "saved.tasks"
    rng = random.Random(seed)
    source = {f"t{i:04d}": TaskRecord(rng.random() < 0.3, f"task {i}", rng.choice(DUES)) for i in range(rows)}
    session = new_session(variant, TODAY, source)
    for n, (kind, *args) in enumerate([*steps, ("put",)]):
        if kind == "add":
            side, key, due = args
            line, command = f'edit {side} add {key} "edit {n}" {TODAY if side == "dt" else due}', f"edit {side}"
        elif kind == "del":
            line, command = f"edit {args[0]} del {args[1]}", f"edit {args[0]}"
        elif kind == "complete":
            line, command = f"edit og complete {args[0]}", "edit og"
        elif kind == "postpone":
            line, command = f"edit dt postpone {args[0]} {args[1]}", "edit dt"
        else:
            line, command = f"save {saved}" if kind == "save" else kind, kind
        before = session
        try:
            session, out = run_command(session, line)
        except CommandError:
            continue  # a conflicting or out-of-variant edit; the session is unchanged
        replaced = [name for name in KEPT[command] if getattr(session, name) is not getattr(before, name)]
        assert not replaced, (line, replaced)
        if kind == "put" and session is not before:
            staged = (before.staged_og, before.staged_dt)
            verdicts = ["yes" if d.le(delta, view) else "NO" for d, delta, view in zip(domains, staged, session.views)]
            expected = [f"{side} delta preserved in refreshed view: {v}" for side, v in zip(("og", "dt"), verdicts)]
            assert out[1:] == expected, line
        if kind == "save":
            assert saved.read_bytes() == dump_tasks(session.source).encode() and session.text.table is session.source


# ---------------------------------------------------------------------------
# subprocess batch runs
# ---------------------------------------------------------------------------


def test_batch_scenario_replays_to_byte_identical_output(workdir):
    result = run_cli(["--script", "golden/scenario_batch.script"], workdir)
    assert result.returncode == 0, result.stderr
    first = (workdir / "out.tasks").read_bytes()
    assert first == (GOLDEN / "source_after_simultaneous.tasks").read_bytes()
    (workdir / "out.tasks").unlink()
    result = run_cli(["--script", "golden/scenario_batch.script"], workdir)
    assert result.returncode == 0
    assert (workdir / "out.tasks").read_bytes() == first


def test_batch_elaborated_scenario(workdir):
    result = run_cli(
        ["--variant", "elaborated", "--script", "golden/elaborated_batch.script"], workdir
    )
    assert result.returncode == 0, result.stderr
    out = (workdir / "out_elaborated.tasks").read_bytes()
    assert out == (GOLDEN / "source_after_complete_delete.tasks").read_bytes()


def test_batch_conflict_leaves_session_bytes_unchanged(workdir):
    result = run_cli(["--script", "golden/conflict_batch.script"], workdir)
    assert result.returncode == 0, result.stderr
    assert "MergeConflict" in result.stdout
    before = (workdir / "before.tasks").read_bytes()
    after = (workdir / "after.tasks").read_bytes()
    assert before == after == (GOLDEN / "source_initial.tasks").read_bytes()


def test_batch_command_error_exits_1(workdir):
    script = workdir / "broken.script"
    script.write_text("load nowhere.tasks\n")
    result = run_cli(["--script", str(script)], workdir)
    assert result.returncode == 1
    assert "error:" in result.stderr
    script.write_text('edit og add "" "x" 2025-04-01\n')
    result = run_cli(["--script", str(script)], workdir)
    assert result.returncode == 1
    assert result.stderr.startswith("error:") and "Traceback" not in result.stderr


def test_laws_flag_exits_zero_when_suite_passes(workdir):
    result = run_cli(["--laws"], workdir)
    assert result.returncode == 0, result.stderr
    assert "bad: ps-stability: FAILS" in result.stdout
    assert "[UNEXPECTED]" not in result.stdout
