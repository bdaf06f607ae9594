"""The result store: one digest-verified file per job key.

``run_jobs(cache_dir=...)`` and ``repro serve --store`` keep their
results in the same layout, so a ``repro sweep --cache D`` directory is
a ``repro serve --store D`` directory and back, with no conversion::

    root/<job_key>.result    # line 1: sha256 hex of the rest
                             # rest:   json.dumps(result)

``put`` writes a temp file in ``root`` and ``os.replace``s it into
place, so a kill mid-write never leaves a partial entry under a real
key.  ``get`` reads the file once and re-hashes the body: a torn,
bit-flipped or hand-edited entry is moved aside to ``<name>.corrupt``
(out of the ``*.result`` namespace, so it is never probed again),
logged, counted, and read as a miss.  It costs a re-execution, never a
wrong result.

A key that is not 64 lowercase hex characters (what
:func:`repro.harness.parallel.job_key` makes) is refused before any
filesystem access, so text from a URL can never name a path outside
``root``.  Files of other layouts, such as ``<key>.json`` entries of
older caches, are never probed and read as misses.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path

_LOG = logging.getLogger("repro.harness.store")

#: file-name suffix of one stored result
SUFFIX = ".result"

_is_key = re.compile(r"[0-9a-f]{64}").fullmatch


@dataclass
class StoreStats:
    """What one store handle did, surfaced through ``/v1/stats``."""

    puts: int = 0         #: results written
    gets: int = 0         #: verified reads served
    quarantined: int = 0  #: torn or tampered entries moved aside


class ResultStore:
    """Job-keyed results under ``root`` (created if missing)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise ValueError(
                f"result store path {self.root} exists and is not a "
                "directory"
            ) from None
        self._dir = str(self.root)
        self.stats = StoreStats()

    def _path(self, key: str) -> str | None:
        """Where ``key`` lives, or ``None`` for anything but a job key."""
        if not _is_key(key):
            return None
        return os.path.join(self._dir, key + SUFFIX)

    def put(self, key: str, result: dict) -> Path:
        """Atomically store ``result`` under ``key``; returns the entry's
        path (the flush-time fault hooks act on it)."""
        path = self._path(key)
        if path is None:
            raise ValueError(f"not a job key: {key[:80]!r}")
        body = json.dumps(result).encode()
        fd, tmp = tempfile.mkstemp(
            dir=self._dir, prefix=key[:16] + "-", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(
                    hashlib.sha256(body).hexdigest().encode() + b"\n" + body
                )
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.puts += 1
        return Path(path)

    def get(self, key: str) -> dict | None:
        """The verified result for ``key``, or ``None`` on a miss."""
        path = self._path(key)
        if path is None:
            return None
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError:
            return None
        digest, _, body = data.partition(b"\n")
        try:
            if hashlib.sha256(body).hexdigest().encode() == digest:
                result = json.loads(body)
                self.stats.gets += 1
                return result
        except ValueError:  # a matching digest over text that is not JSON
            pass
        quarantine = path + ".corrupt"
        try:
            os.replace(path, quarantine)
        except OSError:  # pragma: no cover - another reader moved it
            return None
        self.stats.quarantined += 1
        _LOG.warning(
            "quarantined corrupt cache entry %s -> %s",
            os.path.basename(path), os.path.basename(quarantine),
        )
        return None

    def __contains__(self, key: str) -> bool:
        path = self._path(key)
        return path is not None and os.path.isfile(path)

    def __len__(self) -> int:
        return sum(name.endswith(SUFFIX) for name in os.listdir(self._dir))
