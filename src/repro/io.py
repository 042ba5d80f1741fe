"""Shared durable small-file I/O helpers.

The finished-restart checkpoints of :mod:`repro.core.orchestrator` need one
property: after a crash at any instant, a reader finds either the old
complete payload or the new complete payload, never a torn one.
:func:`write_json_atomic` is that primitive.  (Whole-run results live in the
service's sqlite ``JobStore``, whose transactions give the same guarantee.)
"""

from __future__ import annotations

import json
import os
from pathlib import Path

__all__ = ["write_json_atomic", "fsync_directory"]


def fsync_directory(path: Path) -> None:
    """Flush a directory entry to disk (best-effort on exotic platforms)."""
    try:
        directory_fd = os.open(path, os.O_RDONLY)
    except OSError:
        return  # platform without directory opening; rename is still atomic
    try:
        os.fsync(directory_fd)
    except OSError:
        pass
    finally:
        os.close(directory_fd)


def write_json_atomic(path: Path, payload: dict) -> None:
    """Write-temp / fsync / rename: the file is either old or complete.

    The temp file is fsynced *before* the rename — without it, a power loss
    (or kill -9 racing the page cache) can persist the rename but not the
    data, leaving an empty-but-renamed file.  The directory is fsynced
    after, so the rename itself is durable too.  (Readers still tolerate
    zero-byte/truncated payloads as stale — defence in depth.)
    """
    path = Path(path)
    temporary = path.with_suffix(f".tmp.{os.getpid()}")
    with open(temporary, "w") as handle:
        handle.write(json.dumps(payload) + "\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    fsync_directory(path.parent)
