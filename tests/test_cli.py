"""Command front end: sessions, batch determinism, exit codes."""

import io
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pslens.cli import CommandError, LawSuiteFailure, main, new_session, run_command, run_lines
from pslens.tasks import Delta, TaskRecord, dump_tasks, load_tasks

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
    monkeypatch.setattr("sys.stdin", io.StringIO('wibble\nedit og add "x\n'))
    assert main([]) == 0
    assert capsys.readouterr().out == "error: unknown command 'wibble'\nerror: cannot parse 'edit og add \"x'\n"


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


def test_laws_failure_exit_code(monkeypatch):
    import pslens.cli as cli

    monkeypatch.setattr(cli, "run_fixture_suite", lambda names=None: (["boom [UNEXPECTED]"], False))
    with pytest.raises(LawSuiteFailure):
        run_command(new_session("plain", TODAY), "laws")
    assert cli.main(["--laws"]) == 2


def test_unknown_command():
    with pytest.raises(CommandError):
        run_command(new_session("plain", TODAY), "frobnicate")


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
    st.just(("save",)),
)


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
def test_views_equal_the_pipeline_get_of_the_source_after_every_step(tmp_path_factory, variant, rows, seed, steps):
    saved = tmp_path_factory.mktemp("steps") / "saved.tasks"
    rng = random.Random(seed)
    source = {f"t{i:04d}": TaskRecord(rng.random() < 0.3, f"task {i}", rng.choice(DUES)) for i in range(rows)}
    session = new_session(variant, TODAY, source)
    for n, (kind, *args) in enumerate([*steps, ("put",)]):
        if kind == "add":
            side, key, due = args
            line = f'edit {side} add {key} "edit {n}" {TODAY if side == "dt" else due}'
        elif kind == "del":
            line = f"edit {args[0]} del {args[1]}"
        elif kind == "complete":
            line = f"edit og complete {args[0]}"
        elif kind == "postpone":
            line = f"edit dt postpone {args[0]} {args[1]}"
        else:
            line = f"save {saved}" if kind == "save" else "put"
        try:
            session, _ = run_command(session, line)
        except CommandError:
            pass  # a conflicting or out-of-variant edit; the session is unchanged
        assert session.views == session.pipeline.get(session.source), line
        if kind == "save":
            assert saved.read_bytes() == dump_tasks(session.source).encode() and not session.unsaved


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
