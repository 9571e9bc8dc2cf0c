"""Line-oriented front end: load a task source, stage per-view deltas,
push them through the pipeline, inspect preservation, run the law suite.

Commands, one per line, follow the line grammar of the file formats
(:func:`pslens.iposet._tokenize`): ``#`` starts a comment, blank lines
are skipped, and ``'`` and ``\\`` outside double quotes are ordinary.

    load <file>                     read the task source
    show                            print source and both views
    edit og|dt add <id> <name> <due>    stage an upsert for a view
    edit og|dt del <id>                 stage a deletion
    edit og complete <id>               stage a completion (elaborated)
    edit dt postpone <id> <due>         stage a postponement (elaborated)
    edit og|dt file <path>              stage a whole delta file
    put                             propagate staged deltas; report preservation
    reset                           drop staged deltas
    save <file>                     write the source canonically
    laws [fixture]                  run the law suite

A failed ``put`` reports the reason and leaves the session untouched.
Files are UTF-8 both ways.  An id or name holding a lone surrogate (as an undecodable
byte on stdin reads) is refused where it enters, so every table a session holds saves
and loads back; a ``save`` that fails while writing may leave its target partly overwritten.
Exit codes: 0 success, 1 command error, 2 law-suite failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .iposet import UNDEFINED, _tokenize
from .laws import run_fixture_suite
from .lens import PSLens, is_failure
from .tasks import (
    Delta,
    ParseError,
    Table,
    TaskRecord,
    TaskText,
    _check_ids,
    _check_table,
    dt_domain,
    dtdt_domain,
    dtog_domain,
    dump_tasks,
    load_delta,
    load_tasks,
    task_pipeline,
)


_NO_EDITS = Delta()  # what a session stages before its first edit and after a put or reset


class CommandError(Exception):
    """User input that cannot be executed; the session is unchanged."""


class LawSuiteFailure(Exception):
    """The law suite reported an unexpected verdict."""


@dataclass(frozen=True)
class Session:
    """One synchronization session.

    The views are not stored: ``views`` is the pipeline's ``get`` of the
    whole source, and ``views_of(ids)`` the ``get`` of just the rows
    ``ids`` name.  Each filter keeps or drops a row on its own, so the
    latter is the full views restricted to ``ids`` at O(|ids|) cost.
    The staged deltas are what the next ``put`` will propagate.

    ``source`` is a persistent :class:`~pslens.tasks.Table`, adopted
    with one copy: a ``put`` makes a new version of it at O(|delta|)
    cost, and an older session still reads its own version.  ``text`` is
    the canonical text of the source version of the last load or save, so
    ``text.patch(source)`` renders ``dump_tasks(source)`` by rebuilding
    the blocks of the ids the undo diffs since then name.  ``show``
    renders the patched text; a ``save`` writes and keeps it.
    """

    variant: str
    today: str
    source: Table
    staged_og: object
    staged_dt: object
    text: TaskText = field(repr=False)

    @property
    def pipeline(self) -> PSLens:
        return _pipeline(self.variant, self.today)

    @property
    def views(self) -> tuple[dict, dict]:
        return self.pipeline.get(self.source)

    def views_of(self, ids) -> tuple[dict, dict]:
        return self.pipeline.get({k: self.source[k] for k in ids if k in self.source})


@functools.cache
def _pipeline(variant: str, today: str) -> PSLens:
    return task_pipeline(variant, today)


def new_session(variant: str, today: str, source: Optional[Mapping] = None) -> Session:
    _pipeline(variant, today)  # an unknown variant or a bad date fails here
    table = Table.of(_check_table({} if source is None else source, "source"))
    return Session(variant, today, table, _NO_EDITS, _NO_EDITS, TaskText.of(table))


def _render_tasks(text: str) -> list[str]:
    return ["  " + line for line in text.split("\n")[:-1]] or ["  (empty)"]


def _load(path: str, parse, *args):
    """``parse(text, *args)`` of a UTF-8 file, keeping ``\\r`` (lines end at ``\\n`` only); fails with ``CommandError``."""
    try:
        with open(path, encoding="utf-8", newline="") as f:
            return parse(f.read(), *args)
    except (OSError, UnicodeDecodeError) as exc:
        raise CommandError(str(exc)) from None
    except ParseError as exc:
        raise CommandError(f"{path}: {exc}") from None


_IOV = 1024  # buffers per os.writev call at most: IOV_MAX on Linux and macOS


def _overwrite(path: str, chunks: list) -> None:
    """Write the bytes ``chunks`` over the old bytes of ``path`` (created if
    missing) with gathered writes (``os.writev``), then cut off whatever a
    longer old file had beyond them.

    The chunks go out without being joined, at most ``_IOV`` to a call,
    and a short write goes on from the first byte not written.
    Truncating first would drop the file's blocks, and ext4 then flushes
    a file truncated to zero and rewritten when it is closed, which makes
    a same-size save several times slower and its time depend on the
    disk.  A pipe or terminal is never cut (its size reads 0).
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        chunks, i, size = list(chunks), 0, 0
        while i < len(chunks):
            n = os.writev(fd, chunks[i : i + _IOV])
            size += n
            while i < len(chunks) and n >= len(chunks[i]):
                n -= len(chunks[i])
                i += 1
            if n:
                chunks[i] = chunks[i][n:]
        if os.fstat(fd).st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


def _side_domains(session: Session):
    if session.variant == "plain":
        return dt_domain(), dt_domain()
    return dtog_domain(), dtdt_domain(session.today)


def _parse_edit(session: Session, args: list[str]):
    """The side and the delta of one ``edit`` command; raises ``ValueError``
    for a bad id, name or date.  An inline edit checks its one id and its
    record, so its delta is built unchecked."""
    if len(args) < 2 or args[0] not in ("og", "dt"):
        raise CommandError("usage: edit og|dt add|del|complete|postpone|file ...")
    side, action, rest = args[0], args[1], args[2:]
    elaborated = session.variant == "elaborated"
    adds, deletes, moves = {}, frozenset(), {}

    if action == "add":
        if len(rest) != 3:
            raise CommandError("usage: edit og|dt add <id> <name> <due>")
        key, name, due = rest
        adds = {key: TaskRecord(False, name, due)}
        if side == "dt" and due != session.today:
            raise CommandError(f"tasks added to the today view must be due {session.today}")
    elif action == "del":
        if len(rest) != 1:
            raise CommandError("usage: edit og|dt del <id>")
        key = rest[0]
        deletes = frozenset(rest)
    elif action == "complete":
        if not (elaborated and side == "og"):
            raise CommandError("complete needs the elaborated pipeline and the og view")
        if len(rest) != 1:
            raise CommandError("usage: edit og complete <id>")
        key = rest[0]
        og_view = session.views_of((key,))[0]
        if key not in og_view:
            raise CommandError(f"no task {key!r} in the ongoing view")
        moves = {key: TaskRecord(True, og_view[key].name, og_view[key].due)}
    elif action == "postpone":
        if not (elaborated and side == "dt"):
            raise CommandError("postpone needs the elaborated pipeline and the dt view")
        if len(rest) != 2:
            raise CommandError("usage: edit dt postpone <id> <new-due>")
        key, due = rest
        dt_view = session.views_of((key,))[1]
        if key not in dt_view:
            raise CommandError(f"no task {key!r} in the today view")
        if due == session.today:
            raise CommandError("postponing needs a different due date")
        moves = {key: TaskRecord(dt_view[key].done, dt_view[key].name, due)}
    elif action == "file":
        if len(rest) != 1:
            raise CommandError("usage: edit og|dt file <path>")
        shape = "plain" if not elaborated else ("ongoing" if side == "og" else "today")
        return side, _load(rest[0], load_delta, shape)
    else:
        raise CommandError(f"unknown edit action {action!r}")
    _check_ids((key,))
    return side, Delta._of(adds, deletes, moves)


def run_command(session: Session, line: str) -> tuple[Session, list[str]]:
    """Execute one command line; never mutates, returns the next session."""
    tokens = _tokenize(line)
    if tokens is None:
        raise CommandError(f"cannot parse {line!r}")
    if not tokens:
        return session, []
    cmd, args = tokens[0], tokens[1:]

    if cmd == "load":
        if len(args) != 1:
            raise CommandError("usage: load <file>")
        source = _load(args[0], load_tasks)
        return new_session(session.variant, session.today, source), [f"loaded {len(source)} task(s)"]

    if cmd == "show":
        if args:
            raise CommandError("usage: show")
        og_view, dt_view = session.views
        out = ["source:"] + _render_tasks(str(session.text.patch(session.source)))
        out += ["ongoing view:"] + _render_tasks(dump_tasks(og_view))
        out += [f"today view ({session.today}):"] + _render_tasks(dump_tasks(dt_view))
        return session, out

    if cmd == "edit":
        try:
            side, incoming = _parse_edit(session, args)
        except ValueError as exc:
            raise CommandError(str(exc)) from None
        i = ("og", "dt").index(side)
        domain = _side_domains(session)[i]
        if not domain.contains(incoming):
            raise CommandError(f"the {side} delta is outside the {domain.name} domain")
        merged = domain.merge((session.staged_og, session.staged_dt)[i], incoming)
        if merged is UNDEFINED:
            raise CommandError(f"conflicting edits staged for the {side} view")
        og, dt = (merged, session.staged_dt) if side == "og" else (session.staged_og, merged)
        return (
            Session(session.variant, session.today, session.source, og, dt, session.text),
            [f"staged for {side} view"],
        )

    if cmd == "put":
        if args:
            raise CommandError("usage: put")
        result = session.pipeline.put(session.source, (session.staged_og, session.staged_dt))
        if is_failure(result):
            return session, [f"{result}", "session unchanged"]
        ids = session.staged_og.ids | session.staged_dt.ids
        fresh = Session(session.variant, session.today, result, _NO_EDITS, _NO_EDITS, session.text)
        out = [f"source now has {len(result)} task(s)"]
        staged = (session.staged_og, session.staged_dt)
        for side, domain, delta, view in zip(("og", "dt"), _side_domains(session), staged, fresh.views_of(ids)):
            out.append(f"{side} delta preserved in refreshed view: " + ("yes" if domain.le(delta, view) else "NO"))
        return fresh, out

    if cmd == "reset":
        if args:
            raise CommandError("usage: reset")
        return (
            Session(session.variant, session.today, session.source, _NO_EDITS, _NO_EDITS, session.text),
            ["staged deltas dropped"],
        )

    if cmd == "save":
        if len(args) != 1:
            raise CommandError("usage: save <file>")
        text = session.text.patch(session.source)
        try:
            _overwrite(args[0], [data for _, _, data in text.blocks])
        except OSError as exc:
            raise CommandError(str(exc)) from None
        return (
            Session(session.variant, session.today, session.source, session.staged_og, session.staged_dt, text),
            [f"saved {args[0]}"],
        )

    if cmd == "laws":
        try:
            lines, ok = run_fixture_suite(args or None)
        except ValueError as exc:
            raise CommandError(str(exc)) from None
        if not ok:
            raise LawSuiteFailure("\n".join(lines))
        return session, lines

    raise CommandError(f"unknown command {cmd!r}")


def run_lines(session: Session, lines, out=None) -> Session:
    """Drive a command sequence; a command error is raised naming its line.
    Output goes to ``out``, or to ``sys.stdout`` as it is at print time."""
    for lineno, line in enumerate(lines, start=1):
        try:
            session, output = run_command(session, line)
        except CommandError as exc:
            raise CommandError(f"line {lineno}: {exc}") from None
        for text in output:
            print(text, file=out)
    return session


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="pslens",
        description="Synchronize a to-do table with its ongoing and due-today views.",
    )
    parser.add_argument("--today", default="2025-04-01", help="the due-today view's date (YYYY-MM-DD)")
    parser.add_argument("--variant", choices=["plain", "elaborated"], default="plain")
    parser.add_argument("--script", help="batch command file (default: interactive)")
    parser.add_argument("--laws", action="store_true", help="run the law suite and exit")
    args = parser.parse_args(argv)
    for stream in (sys.stdout, sys.stderr):  # a name the terminal cannot encode is printed escaped
        if isinstance(stream, io.TextIOWrapper):
            stream.reconfigure(errors="backslashreplace")
    if isinstance(sys.stdin, io.TextIOWrapper):  # an undecodable byte reads as a lone surrogate, which edit refuses
        sys.stdin.reconfigure(errors="surrogateescape")

    if args.laws:
        lines, ok = run_fixture_suite()
        for line in lines:
            print(line)
        return 0 if ok else 2

    try:
        session = new_session(args.variant, args.today)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.script:
        try:
            run_lines(session, _load(args.script, str.split, "\n"))
        except CommandError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except LawSuiteFailure as exc:
            print(str(exc), file=sys.stderr)
            return 2
        return 0

    interactive = sys.stdin.isatty()
    while True:
        if interactive:
            print("pslens> ", end="", flush=True)
        line = sys.stdin.readline()
        if not line:
            return 0
        try:
            session, output = run_command(session, line.rstrip("\n"))
        except CommandError as exc:
            print(f"error: {exc}")
            continue
        except LawSuiteFailure as exc:
            print(str(exc))
            continue
        for text in output:
            print(text)


if __name__ == "__main__":
    sys.exit(main())
