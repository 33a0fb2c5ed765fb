"""Cross-process advisory locking of the persistent store.

The hazard the lock closes: process A opens a store (whose constructor
sweeps stale ``*.tmp`` files) while process B is mid-commit — between
writing its temp file and publishing it with ``os.replace``.  Without
the lock, A's sweep can unlink B's temp file and B's healthy commit is
lost.  These tests drive a real second interpreter process through the
store's own lock to prove the exclusion is effective across processes,
not just threads.
"""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.analysis.instances import InstanceSpec
from repro.service import store as store_module
from repro.service.store import (
    LOCK_FILE,
    KilledWriter,
    PersistentStore,
    TMP_SUFFIX,
    _Hooks,
    spec_key,
)

fcntl = pytest.importorskip("fcntl")

SPEC = InstanceSpec("grid", (5, 5), partition=("voronoi", 5, 1))

# The child holds the store's own _process_lock, reports it via a
# marker file, and releases only when told — a deterministic stand-in
# for "another process is mid-commit".
HOLDER_SCRIPT = """
import sys, time
from pathlib import Path
from repro.service.store import PersistentStore

root, locked, release = Path(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3])
store = PersistentStore(root)
with store._process_lock():
    locked.touch()
    deadline = time.monotonic() + 30
    while not release.exists():
        if time.monotonic() > deadline:
            sys.exit(2)
        time.sleep(0.01)
"""


def _wait_for(path: Path, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while not path.exists():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {path}")
        time.sleep(0.01)


def test_lock_excludes_second_process(tmp_path, subprocess_env):
    root = tmp_path / "store"
    store = PersistentStore(root)
    locked = tmp_path / "locked.marker"
    release = tmp_path / "release.marker"
    child = subprocess.Popen(
        [sys.executable, "-c", HOLDER_SCRIPT, str(root), str(locked), str(release)],
        env=subprocess_env,
    )
    try:
        _wait_for(locked)
        # While the child holds the lock, this process cannot take it.
        with open(root / LOCK_FILE, "a+b") as handle:
            with pytest.raises(BlockingIOError):
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        # An orphan planted now must survive until the child releases:
        # sweep_tmp blocks on the lock instead of racing the "commit".
        shard = root / "ab"
        shard.mkdir(exist_ok=True)
        orphan = shard / f"entry.json.999.1{TMP_SUFFIX}"
        orphan.write_text("half-written")
        release.touch()
        assert child.wait(timeout=30) == 0
        assert store.sweep_tmp() == 1
        assert not orphan.exists()
    finally:
        release.touch()
        if child.poll() is None:
            child.kill()
            child.wait()


def test_two_process_put_and_sweep_storm(tmp_path, subprocess_env):
    """Concurrent writers + sweeping reopeners never lose a commit."""
    root = tmp_path / "store"
    writer = """
import sys
from repro.analysis.instances import InstanceSpec
from repro.service.store import PersistentStore, spec_key

spec = InstanceSpec("grid", (5, 5), partition=("voronoi", 5, 1))
# Reopen per batch: every constructor runs the orphan sweep, so the
# two processes continuously interleave sweeps with commits.
lane = int(sys.argv[2])
for batch in range(5):
    store = PersistentStore(sys.argv[1])
    for index in range(10):
        key = spec_key("mst", spec, lane=lane, batch=batch, index=index)
        assert store.put(key, {"lane": lane, "batch": batch, "index": index})
"""
    children = [
        subprocess.Popen(
            [sys.executable, "-c", writer, str(root), str(lane)],
            env=subprocess_env,
        )
        for lane in (0, 1)
    ]
    for child in children:
        assert child.wait(timeout=60) == 0
    survivor = PersistentStore(root)
    for lane in (0, 1):
        for batch in range(5):
            for index in range(10):
                key = spec_key(
                    "mst", SPEC, lane=lane, batch=batch, index=index
                )
                assert survivor.get(key) == {
                    "lane": lane,
                    "batch": batch,
                    "index": index,
                }


def test_killed_writer_releases_lock(tmp_path):
    """The simulated mid-commit kill must not leave the lock held."""

    def kill(key, tmp):
        raise KilledWriter()

    store = PersistentStore(tmp_path / "store", hooks=_Hooks(during_commit=kill))
    with pytest.raises(KilledWriter):
        store.put(spec_key("mst", SPEC), {"x": 1})
    # The lock is free again: the orphan sweep acquires it and removes
    # the temp file the killed commit left behind.
    assert store.sweep_tmp() == 1


def test_lock_file_is_not_an_entry(tmp_path):
    store = PersistentStore(tmp_path / "store")
    key = spec_key("mst", SPEC)
    store.put(key, {"x": 1})
    assert (store.root / LOCK_FILE).exists()
    assert list(store.keys()) == [key]
    assert store.sweep_tmp() == 0
    assert (store.root / LOCK_FILE).exists()


def test_lock_degrades_without_fcntl(tmp_path, monkeypatch):
    monkeypatch.setattr(store_module, "fcntl", None)
    store = PersistentStore(tmp_path / "store")
    key = spec_key("mst", SPEC)
    assert store.put(key, {"x": 1})
    assert store.get(key) == {"x": 1}
    assert store.sweep_tmp() == 0
