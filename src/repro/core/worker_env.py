"""Python-worker set-up: zip archives on ``sys.path`` are re-read only when
they change.

A PySpark worker calls ``importlib.invalidate_caches()`` at the start of
every task (``pyspark.worker_util.setup_spark_files``). Before CPython
3.13, that makes every ``zipimport.zipimporter`` re-read its archive's
whole directory, once per importer: a worker holds about a dozen
importers over ``pyspark.zip`` alone, so each task spends about 0.2 s
re-reading archives that have not changed. CPython 3.13 drops the cached
directory instead and reads it again on the next lookup, once per archive.

:func:`install` replaces ``zipimporter.invalidate_caches`` below 3.13
with one that re-reads an archive only when ``os.stat`` gives it a new
modification time, size or inode, and reads it once for all of its
importers. The kernel path of both runners calls it
(``spark_runner.window_frame``), so it takes effect in the Python workers
from their second task on; the first task's set-up ran before any
``repro`` code.
"""
from __future__ import annotations

import os
import sys
import zipimport

_original = zipimport.zipimporter.invalidate_caches
# archive path -> (st_mtime_ns, st_size, st_ino) when its cached directory
# was last read
_read_at: dict[str, tuple[int, int, int]] = {}


def _stamp(path: str) -> tuple[int, int, int]:
    st = os.stat(path)
    return st.st_mtime_ns, st.st_size, st.st_ino


def _invalidate_caches(self: zipimport.zipimporter) -> None:
    """Reload the archive's directory if the archive has changed since it
    was last read; else share the cached one."""
    path = self.archive
    try:
        stamp = _stamp(path)
    except OSError:  # gone: the original empties the importer's directory
        _read_at.pop(path, None)
        return _original(self)
    files = zipimport._zip_directory_cache.get(path)
    if files is None or _read_at.get(path) != stamp:
        _original(self)  # reads the archive, or forgets it if unreadable
        _read_at[path] = stamp
    else:
        self._files = files


def install() -> None:
    """Replace ``zipimporter.invalidate_caches`` (module docstring), once
    per process; a no-op on CPython 3.13 and later.

    The directories cached at this moment are taken as current, so an
    archive rewritten between its last read and this call is re-read only
    after its next change."""
    if sys.version_info >= (3, 13) or zipimport.zipimporter.invalidate_caches is _invalidate_caches:
        return
    _read_at.clear()
    for path in list(zipimport._zip_directory_cache):
        try:
            _read_at[path] = _stamp(path)
        except OSError:
            pass
    zipimport.zipimporter.invalidate_caches = _invalidate_caches
