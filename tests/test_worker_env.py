"""``worker_env.install``: after it, ``importlib.invalidate_caches()`` re-reads
a zip archive on ``sys.path`` only when the archive has changed, once for
all of its importers; on CPython 3.13 and later it changes nothing."""
import importlib
import os
import sys
import zipfile
import zipimport

import pytest

from repro.core import worker_env


@pytest.fixture
def archive(tmp_path, monkeypatch):
    """A zip holding module ``m1`` on ``sys.path``, imported, and a list
    that records every ``zipimport._read_directory`` call from here on.
    ``sys.path``, ``sys.modules`` and ``zipimporter.invalidate_caches``
    are restored afterwards."""
    path = str(tmp_path / "mods.zip")
    with zipfile.ZipFile(path, "w") as z:
        z.writestr("m1.py", "X = 1\n")
    saved_modules = dict(sys.modules)
    monkeypatch.setattr(sys, "path", [path, *sys.path])
    # The interpreter's method, even if a kernel run in this process
    # installed the replacement already.
    monkeypatch.setattr(zipimport.zipimporter, "invalidate_caches", worker_env._original)
    import m1  # noqa: F401

    reads = []
    read = zipimport._read_directory

    def counting_read(archive):
        reads.append(archive)
        return read(archive)

    monkeypatch.setattr(zipimport, "_read_directory", counting_read)
    yield path, reads
    sys.modules.clear()
    sys.modules.update(saved_modules)
    sys.path_importer_cache.pop(path, None)
    zipimport._zip_directory_cache.pop(path, None)


def add_m2(path: str) -> None:
    """Rewrite the archive with a second module ``m2``; the size changes."""
    with zipfile.ZipFile(path, "a") as z:
        z.writestr("m2.py", "Y = 2\n")


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="3.13 needs no fix")
def test_unchanged_archive_is_not_reread(archive):
    path, reads = archive
    importlib.invalidate_caches()
    assert reads.count(path) == 1  # the interpreter's own method re-reads it
    reads.clear()
    worker_env.install()
    for _ in range(3):
        importlib.invalidate_caches()
    assert reads == []


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="3.13 needs no fix")
def test_changed_archive_is_read_once(archive, monkeypatch):
    path, reads = archive
    # A second importer of the same archive, as for a package inside it.
    inner = os.path.join(path, "pkg")
    monkeypatch.setitem(sys.path_importer_cache, inner, zipimport.zipimporter(inner))
    worker_env.install()
    add_m2(path)
    importlib.invalidate_caches()
    assert reads == [path]
    assert sys.path_importer_cache[inner]._files is sys.path_importer_cache[path]._files
    import m2
    assert m2.Y == 2
    importlib.invalidate_caches()
    assert reads == [path]


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="3.13 needs no fix")
def test_install_twice_changes_nothing(archive):
    path, reads = archive
    worker_env.install()
    patched = zipimport.zipimporter.invalidate_caches
    add_m2(path)
    worker_env.install()  # must not take the changed archive as read
    assert zipimport.zipimporter.invalidate_caches is patched
    importlib.invalidate_caches()
    assert reads.count(path) == 1
    import m2  # noqa: F401


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="3.13 needs no fix")
def test_missing_archive_falls_back(archive, tmp_path):
    path, reads = archive
    worker_env.install()
    os.rename(path, tmp_path / "moved.zip")
    importlib.invalidate_caches()  # no error: the original empties the directory
    assert path not in zipimport._zip_directory_cache
    with pytest.raises(ImportError):
        import m2  # noqa: F401


def test_install_does_nothing_from_3_13(archive, monkeypatch):
    original = zipimport.zipimporter.invalidate_caches
    monkeypatch.setattr(sys, "version_info", (3, 13, 0, "final", 0))
    worker_env.install()
    assert zipimport.zipimporter.invalidate_caches is original
