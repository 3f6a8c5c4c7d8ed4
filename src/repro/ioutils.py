"""Crash-safe file writing for every artefact writer, and one input-file reader.

A plain ``Path.write_text`` truncates the destination before writing, so a
crash (or ``kill -9``) mid-write leaves a half-file that the corresponding
loader then reports as corrupt — for spec files, arrival traces and store
exports that means a previously-good artefact is destroyed by the failed
refresh.  :func:`atomic_write_text` writes to a temporary file *in the same
directory* (so the final rename never crosses a filesystem boundary) and
``os.replace``\\ s it into place: readers observe either the complete old
content or the complete new content, never a truncation.

Durability is two-step: the temp file is fsynced before the rename (the
*content* is on disk), and the parent directory is fsynced after it (the
*rename itself* is on disk — without this a power cut shortly after the
replace can roll the directory entry back to the old file, or to nothing for
a first write).  :func:`fsync_directory` is best-effort because some
platforms (notably Windows) do not allow opening directories.

:func:`atomic_binary_writer` exposes the same temp-write/fsync/replace/
dir-fsync sequence as a context manager yielding the raw binary stream, for
writers that produce output incrementally (the streaming arrival-trace
writer) instead of as one in-memory string.

:func:`read_table_file` parses the TOML (or, by suffix, JSON) files that
describe experiments, fleets and fault plans, and turns every way such a
file can be unreadable — missing, not UTF-8, malformed — into the caller's
own format error.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator, Type, Union

__all__ = ["atomic_write_text", "atomic_binary_writer", "fsync_directory", "read_table_file"]


def fsync_directory(path: Union[str, Path]) -> None:
    """Fsync a directory so a completed rename inside it survives a power cut.

    Best-effort: platforms that refuse to open a directory read-only (or to
    fsync the resulting descriptor — Windows, some network filesystems)
    degrade to a no-op rather than failing the write that already succeeded.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_binary_writer(path: Union[str, Path]) -> Iterator[IO[bytes]]:
    """Yield a binary stream that atomically becomes ``path`` on clean exit.

    The stream writes to a same-directory temporary file.  When the ``with``
    body completes, the temp file is flushed, fsynced, renamed over ``path``
    with ``os.replace`` and the parent directory fsynced, so the new content
    (and the rename) survive a power cut.  If the body raises, the temp file
    is removed and the destination is untouched.

    Callers that wrap the stream (gzip members, text encoders) must close
    their wrappers *inside* the body so buffered data reaches the raw stream
    before the commit; wrappers built on ``fileobj=`` leave the underlying
    stream open.
    """
    path = Path(path)
    directory = path.parent or Path(".")
    handle, tmp_name = tempfile.mkstemp(prefix=f".{path.name}.", suffix=".tmp", dir=directory)
    stream = os.fdopen(handle, "wb")
    try:
        yield stream
        stream.flush()
        os.fsync(stream.fileno())
        stream.close()
        os.replace(tmp_name, path)
        fsync_directory(directory)
    except BaseException:
        try:
            stream.close()
        except OSError:
            pass
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def atomic_write_text(path: Union[str, Path], text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically (same-directory temp + replace).

    The temporary file is flushed and fsynced before the rename and the
    parent directory fsynced after it, so after the function returns the new
    content survives a power cut; if anything raises mid-write the temporary
    file is removed and the destination is untouched.
    """
    with atomic_binary_writer(path) as stream:
        stream.write(text.encode(encoding))


def read_table_file(path: Union[str, Path], error_cls: Type[Exception], noun: str) -> object:
    """Parse a TOML file (JSON when the suffix is ``.json``) into plain data.

    A file that cannot be read or decoded as UTF-8 raises ``error_cls`` with
    ``cannot read {noun} file ...``; a syntax error raises it with ``invalid
    JSON/TOML in ...``.  ``tomllib`` is imported only here, on first use, so
    importing the package does not pay for it.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as error:
        raise error_cls(f"cannot read {noun} file {path}: {error}") from None
    if path.suffix.lower() == ".json":
        try:
            return json.loads(text)
        except json.JSONDecodeError as error:
            raise error_cls(f"invalid JSON in {path}: {error}") from None
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: tomli is the stdlib backport
        import tomli as tomllib
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as error:
        raise error_cls(f"invalid TOML in {path}: {error}") from None
