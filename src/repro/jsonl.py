"""Append-only JSONL logs: one format for every on-disk log of the package.

Three logs are files of one JSON object per line, appended as work
completes: verdict-store segments
(:class:`~repro.engine.persistent.VerdictStore`), campaign result logs
(``run_campaign(log_path=...)``) and span traces
(:mod:`repro.obs.trace`).  They share one crash rule — heal on open, skip
and count on read — so a run killed mid-append costs the one record it
was writing, never the log:

* :func:`open_append` opens a log for appending, creating its parent
  directories.  When a crash left the last line without its newline, the
  next record starts on a fresh line instead of gluing onto the fragment.
* :func:`append` writes one record as one line and flushes it, so no
  buffered bytes can be duplicated into a forked child.  ``fsync=True``
  also pushes the line to disk; that durability choice is the only thing
  that differs between the logs.
* :class:`LogReader` yields the decoded records of a log in order and
  counts the lines that do not decode (a truncated tail, garbage, a
  record of the wrong shape) instead of failing on them.

Records are encoded with sorted keys; values JSON cannot represent are
written as their ``repr``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Union

__all__ = ["LogReader", "append", "open_append"]

PathLike = Union[str, "os.PathLike[str]"]


def open_append(path: PathLike) -> IO[str]:
    """Open the log at ``path`` for appending, healing a truncated tail."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle = path.open("a", encoding="utf-8")
    if handle.tell() > 0:
        with path.open("rb") as probe:
            probe.seek(-1, os.SEEK_END)
            if probe.read(1) != b"\n":
                handle.write("\n")
    return handle


def append(handle: IO[str], record: Any, *, fsync: bool) -> int:
    """Append ``record`` as one flushed line; return the characters written."""
    line = json.dumps(record, sort_keys=True, default=repr) + "\n"
    handle.write(line)
    handle.flush()
    if fsync:
        os.fsync(handle.fileno())
    return len(line)


def _same(record: Any) -> Any:
    return record


class LogReader:
    """The decoded records of one log, in file order.

    ``decode`` turns a parsed JSON value into the caller's record; raising
    ``ValueError``, ``KeyError`` or ``TypeError`` marks the line as
    undecodable.  Undecodable lines are skipped and counted in
    :attr:`corrupt`.  Blank lines are ignored.  Opening a missing or
    unreadable file raises ``OSError`` when iteration starts.
    """

    __slots__ = ("path", "decode", "corrupt")

    def __init__(self, path: PathLike, decode: Callable[[Any], Any] = _same) -> None:
        self.path = path
        self.decode = decode
        self.corrupt = 0

    def __iter__(self) -> Iterator[Any]:
        decode = self.decode
        # Invalid UTF-8 becomes U+FFFD instead of aborting the whole read;
        # a line it breaks fails to parse and is counted like any other.
        with open(self.path, encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if not line.strip():
                    continue
                try:
                    record = decode(json.loads(line))
                except (ValueError, KeyError, TypeError):
                    self.corrupt += 1
                    continue
                yield record
