"""One bounded JSON-lines store behind the serve daemon's three trails.

The access log, the SLO alert log and the slow-capture index are each a
:class:`JsonlRing`: the newest ``ring`` records in memory, optionally
appended to a file that rotates by size into ``name.1`` .. ``name.N``
and is read back on restart.  :func:`generation_paths` and
:func:`read_jsonl` are the read side that ``upcc obs query`` builds on.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from typing import Any, Iterator, TextIO

from repro.obs.logging_bridge import get_logger

__all__ = ["JsonlRing", "generation_paths", "read_jsonl"]

_log = get_logger("repro.obs.jsonl")


def _generation(path: Path, index: int) -> Path:
    """Rotated generation ``index`` of ``path`` (``name.1`` is the newest)."""
    return path.with_name(f"{path.name}.{index}")


def _rotated(path: Path) -> list[tuple[int, Path]]:
    """``(index, path)`` of every rotated generation on disk, newest first."""
    return sorted(
        (int(candidate.name[len(path.name) + 1:]), candidate)
        for candidate in path.parent.glob(f"{path.name}.*")
        if candidate.name[len(path.name) + 1:].isdigit()
    )


def generation_paths(path: str | Path) -> list[Path]:
    """The live file plus its rotated generations, oldest first.

    Rotation shifts ``name -> name.1 -> name.2``, so chronological order
    is highest generation first, live file last.
    """
    path = Path(path)
    return [p for _n, p in reversed(_rotated(path))] + ([path] if path.exists() else [])


def read_jsonl(path: str | Path) -> Iterator[dict[str, Any]]:
    """Parsed objects from a JSON-lines file; malformed lines are skipped."""
    try:
        with open(path, "rb") as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                except ValueError:
                    continue  # a blank, torn or foreign line
                if isinstance(record, dict):
                    yield record
    except OSError:
        return


class JsonlRing:
    """The newest ``ring`` records in memory, optionally appended to a file.

    ``path=None`` keeps only the ring, and no JSON is built then.  With a
    path, the file stays open until :meth:`close` (a failed open is
    retried by the next record), and the append that pushes it past
    ``max_bytes`` rotates it: ``name`` -> ``name.1`` -> ... ->
    ``name.<keep_rolled>``, the oldest deleted.  A file moved away from
    outside keeps receiving writes through the open handle.  A store
    opened on existing files deletes the generations past
    ``keep_rolled`` and reads the newest ``ring`` records back.
    Subclasses that keep objects in the ring override :meth:`encode` and
    :meth:`decode`.
    """

    def __init__(
        self,
        path: str | Path | None = None,
        ring: int = 256,
        max_bytes: int | None = None,
        keep_rolled: int = 3,
    ) -> None:
        self.path = Path(path) if path is not None else None
        self.ring: deque[Any] = deque(maxlen=max(1, ring))
        self.max_bytes = max_bytes if max_bytes and max_bytes > 0 else None
        self.keep_rolled = max(1, keep_rolled)
        self.lines_written = 0
        self.rotations = 0
        self._bytes = 0
        self._lock = threading.Lock()
        self._file: TextIO | None = None
        self._closed = False
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._drop_stale_generations()
            self._read_back()
            self._open_locked()

    @staticmethod
    def encode(item: Any) -> Any:
        """The JSON value written for ``item`` (the record itself here)."""
        return item

    @staticmethod
    def decode(value: Any) -> Any:
        """The ring item for a JSON value read back; raises on a foreign one."""
        if not isinstance(value, dict):
            raise TypeError(f"not a JSON object: {value!r}")
        return value

    def _drop_stale_generations(self) -> None:
        """Delete the generations past ``keep_rolled`` that a store with a
        larger bound left on disk; rotation alone never reaches them."""
        assert self.path is not None
        for index, stale in _rotated(self.path):
            if index > self.keep_rolled:
                try:
                    stale.unlink()
                except OSError as error:
                    _log.warning("%s: cannot delete %s: %s", self.path, stale, error)

    def _read_back(self) -> None:
        """Refill the ring with the newest records on disk, oldest first;
        only the kept raw lines are parsed."""
        assert self.path is not None
        lines: deque[bytes] = deque(maxlen=self.ring.maxlen)
        for file_path in generation_paths(self.path):
            try:
                with open(file_path, "rb") as handle:
                    lines.extend(handle)
            except OSError as error:
                _log.warning("%s: read-back failed: %s", file_path, error)
        for line in lines:
            try:
                self.ring.append(self.decode(json.loads(line)))
            except (KeyError, TypeError, ValueError):
                continue  # a torn last line or a foreign record

    def _open_locked(self) -> None:
        """Open the live file for appending; counts what it already holds."""
        assert self.path is not None
        try:
            self._file = self.path.open("a", encoding="utf-8")
            self._bytes = self.path.stat().st_size
        except OSError as error:
            self._file = None
            _log.warning("%s: open failed: %s", self.path, error)

    def _rotate_locked(self) -> None:
        """Shift ``name`` -> ``name.1`` -> ... -> ``name.<keep_rolled>``."""
        assert self.path is not None
        try:
            _generation(self.path, self.keep_rolled).unlink()
        except OSError:
            pass
        for index in range(self.keep_rolled - 1, 0, -1):
            source = _generation(self.path, index)
            if source.exists():
                try:
                    source.rename(_generation(self.path, index + 1))
                except OSError as error:
                    _log.warning("%s: rotation failed: %s", self.path, error)
        if self._file is not None:
            self._file.close()
        try:
            self.path.rename(_generation(self.path, 1))
        except OSError as error:
            # The live file is still in place: the reopen counts its full
            # size, so the next append retries rotation instead of letting
            # the file grow past max_bytes forever behind a reset counter.
            _log.warning("%s: rotation failed: %s", self.path, error)
        else:
            self.rotations += 1
        self._open_locked()

    def append(self, item: Any) -> Any:
        """Record ``item``; returns the item it pushed out of the ring, or None.

        File I/O failures are logged and swallowed: the ring already has
        the item, and a disk blip must not reach the caller's thread.
        """
        with self._lock:
            evicted = self.ring[0] if len(self.ring) == self.ring.maxlen else None
            self.ring.append(item)
            if self._file is None and self.path is not None and not self._closed:
                # An earlier open failed (at construction or after a
                # rotation); each record retries it.
                self._open_locked()
            if self._file is not None:
                line = json.dumps(self.encode(item), sort_keys=True) + "\n"
                try:
                    self._file.write(line)
                    self._file.flush()
                    self.lines_written += 1
                    # Size accounting must match what stat() would say:
                    # encoded bytes, not characters.
                    self._bytes += len(line.encode("utf-8"))
                    if self.max_bytes is not None and self._bytes > self.max_bytes:
                        self._rotate_locked()
                except OSError as error:
                    _log.warning("%s: write failed: %s", self.path, error)
        return evicted

    def recent(self) -> list[Any]:
        """The ring's items, oldest first."""
        with self._lock:
            return list(self.ring)

    def close(self) -> None:
        """Close the live file; later records go to the ring only."""
        with self._lock:
            self._closed = True
            if self._file is not None:
                self._file.close()
                self._file = None
