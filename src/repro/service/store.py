"""Crash-safe persistent result store.

The on-disk promotion of the per-process instance cache: computed
service results (shortcut constructions, MSTs, min-cuts, connectivity
labellings, quality reports) are cached by the content address of the
request that produced them, so a warm store answers repeat requests
without touching the construction stack at all.

Durability contract
-------------------

* **Atomic commits.**  Every write goes to a temporary file in the same
  directory, is flushed and fsynced, then published with
  ``os.replace`` — a reader never observes a half-written entry, and a
  writer killed mid-commit leaves only a stale ``*.tmp`` file (swept on
  the next store open).
* **Self-verifying entries.**  Each entry file carries a schema-version
  header and a SHA-256 checksum of its canonical payload bytes.  A read
  that finds anything wrong — unparsable JSON, wrong schema, key
  mismatch, checksum mismatch, truncation — never raises into the
  caller: the file is *quarantined* (moved into ``quarantine/`` for
  post-mortem) and the read reports a miss, so the service transparently
  recomputes and repopulates.
* **Bounded memory.**  An LRU layer in front of the disk keeps the last
  ``memory_entries`` payloads hot; the disk itself is the capacity
  layer.
* **Multi-process safety.**  Commits and the orphan sweep serialize on
  an advisory ``fcntl`` file lock in the store root, so a store opening
  in one process (whose sweep deletes stale ``*.tmp`` files) can never
  race a writer in another process between writing its temp file and
  publishing it.  The lock is advisory and held only across those two
  critical sections; plain reads never take it.  On platforms without
  ``fcntl`` the inter-process lock degrades to a no-op (the in-process
  ``threading.Lock`` still applies).

Fault injection
---------------

All filesystem access funnels through ``_read_bytes`` / ``_commit``
hook points that a :class:`~repro.service.chaos.FaultSchedule` can
wrap (IO errors, latency, kill-mid-commit).  The store's observable
contract under any such fault is *miss, never corruption*: either the
old entry survives intact or the entry is gone/quarantined.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple

from repro.analysis.instances import InstanceSpec
from repro.errors import ReproError

try:  # POSIX only; elsewhere the inter-process lock is a no-op.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

STORE_SCHEMA = "repro.store.v1"

# A writer is killed between creating its temp file and publishing it;
# anything with this suffix is garbage by construction and swept.
TMP_SUFFIX = ".tmp"
ENTRY_SUFFIX = ".json"
QUARANTINE_DIR = "quarantine"
LOCK_FILE = ".lock"


class StoreError(ReproError):
    """Raised when the store cannot operate at all (not per-entry)."""


def canonical_json(payload: object) -> bytes:
    """Canonical bytes of a JSON payload (sorted keys, no whitespace).

    The checksum and the content address are both computed over this
    encoding, so equality of payloads is equality of bytes.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def spec_key(op: str, spec: InstanceSpec, **params: object) -> str:
    """Content address of one request: ``sha256(op, spec, params)``.

    Two requests naming the same operation on the same instance spec
    with the same parameters hash identically — across processes,
    machines, and store generations (the digest covers only values, no
    object identities).
    """
    record = {
        "op": op,
        "family": spec.family,
        "params": list(spec.params),
        "weights": list(spec.weights) if spec.weights is not None else None,
        "partition": (
            list(spec.partition) if spec.partition is not None else None
        ),
        "tree_root": spec.tree_root,
        "extra": {k: params[k] for k in sorted(params)},
    }
    return hashlib.sha256(canonical_json(record)).hexdigest()


@dataclass
class StoreStats:
    """Observable store behaviour, for tests, /stats, and E20.

    Pool threads share one store, so every update goes through
    :meth:`bump`; each counter stays a plain ``int`` attribute to read.
    """

    hits_memory: int = 0
    hits_disk: int = 0
    misses: int = 0
    writes: int = 0
    evictions: int = 0
    quarantined: int = 0
    io_errors: int = 0
    swept_tmp: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def bump(self, *names: str) -> None:
        """Add one to each named counter."""
        with self._lock:
            for name in names:
                setattr(self, name, getattr(self, name) + 1)

    def as_dict(self) -> Dict[str, int]:
        """A consistent snapshot of every counter."""
        with self._lock:
            return {k: v for k, v in self.__dict__.items() if k != "_lock"}


@dataclass
class _Hooks:
    """Fault-injection seams; identity by default (see chaos.py)."""

    before_read: Optional[Callable[[str, Path], None]] = None
    before_write: Optional[Callable[[str, Path], None]] = None
    during_commit: Optional[Callable[[str, Path], None]] = None
    mutate_bytes: Optional[Callable[[str, bytes], bytes]] = None


class KilledWriter(BaseException):
    """Simulated process death mid-commit (chaos only).

    Derives from ``BaseException`` so no ``except Exception`` recovery
    path can accidentally "survive" the kill — exactly like a real
    ``SIGKILL``, the commit simply never finishes.
    """


@dataclass
class _Entry:
    payload: object
    checksum: str


class PersistentStore:
    """Content-addressed crash-safe result store with an LRU front.

    Parameters
    ----------
    root:
        Directory holding the entries (created if missing).  Entries
        are sharded by the first two hex digits of their key to keep
        directory fan-out bounded.
    memory_entries:
        Size of the in-memory LRU layer (``0`` disables it).
    hooks:
        Fault-injection seams used by :mod:`repro.service.chaos`.
    """

    def __init__(
        self,
        root: os.PathLike,
        *,
        memory_entries: int = 256,
        hooks: Optional[_Hooks] = None,
    ) -> None:
        self.root = Path(root)
        self.memory_entries = memory_entries
        self.stats = StoreStats()
        self.hooks = hooks or _Hooks()
        self._memory: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            (self.root / QUARANTINE_DIR).mkdir(exist_ok=True)
        except OSError as error:
            raise StoreError(f"cannot create store at {self.root}: {error}")
        self.sweep_tmp()

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """Entry file for a key (two-hex-digit shard directory)."""
        return self.root / key[:2] / f"{key}{ENTRY_SUFFIX}"

    @contextmanager
    def _process_lock(self):
        """Advisory inter-process lock over commit/sweep critical sections.

        An exclusive ``flock`` on ``<root>/.lock``: a sweep in one
        process cannot interleave with another process's
        write-temp-then-publish window, so it never unlinks a temp file
        that is about to be published.  A real ``SIGKILL`` while the
        lock is held releases it with the process; the simulated
        :class:`KilledWriter` releases it through ``finally``.
        """
        if fcntl is None:
            yield
            return
        handle = open(self.root / LOCK_FILE, "a+b")
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()

    def sweep_tmp(self) -> int:
        """Remove temp files left by writers killed mid-commit.

        Safe at any time: a ``*.tmp`` file is by construction
        unpublished — in-flight commits of live writers are excluded by
        the advisory lock — so deleting one can only discard an
        incomplete commit whose request will recompute.
        """
        swept = 0
        try:
            with self._process_lock():
                for tmp in self.root.glob(f"*/*{TMP_SUFFIX}"):
                    try:
                        tmp.unlink()
                    except OSError:
                        continue
                    swept += 1
                    self.stats.bump("swept_tmp")
        except OSError:
            pass
        return swept

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[object]:
        """The payload stored under ``key``, or ``None`` on miss.

        Never raises on a damaged entry: corruption of any kind
        quarantines the file and reports a miss; IO errors report a
        miss (counted in ``stats.io_errors``).
        """
        with self._lock:
            entry = self._memory.get(key)
            if entry is not None:
                self._memory.move_to_end(key)
                self.stats.bump("hits_memory")
                return entry.payload
        path = self.path_for(key)
        try:
            if self.hooks.before_read is not None:
                self.hooks.before_read(key, path)
            raw = path.read_bytes()
        except FileNotFoundError:
            self.stats.bump("misses")
            return None
        except OSError:
            self.stats.bump("io_errors", "misses")
            return None
        if self.hooks.mutate_bytes is not None:
            raw = self.hooks.mutate_bytes(key, raw)
        entry = self._decode(key, raw)
        if entry is None:
            self._quarantine(key, path)
            self.stats.bump("misses")
            return None
        self.stats.bump("hits_disk")
        self._remember(key, entry)
        return entry.payload

    def _decode(self, key: str, raw: bytes) -> Optional[_Entry]:
        """Parse + verify an entry file; ``None`` means corrupt."""
        try:
            envelope = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return None
        if not isinstance(envelope, dict):
            return None
        if envelope.get("schema") != STORE_SCHEMA:
            return None
        if envelope.get("key") != key:
            return None
        if "payload" not in envelope or "sha256" not in envelope:
            return None
        payload = envelope["payload"]
        checksum = hashlib.sha256(canonical_json(payload)).hexdigest()
        if checksum != envelope["sha256"]:
            return None
        return _Entry(payload=payload, checksum=checksum)

    def _quarantine(self, key: str, path: Path) -> None:
        """Move a damaged entry aside so the next read is a clean miss."""
        target = self.root / QUARANTINE_DIR / path.name
        try:
            os.replace(path, target)
            self.stats.bump("quarantined")
        except OSError:
            # Fall back to deletion; the entry must not stay readable.
            try:
                path.unlink()
                self.stats.bump("quarantined")
            except OSError:
                self.stats.bump("io_errors")

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def put(self, key: str, payload: object) -> bool:
        """Persist ``payload`` under ``key``; returns ``False`` on IO error.

        The commit is atomic: temp file in the entry's directory,
        flush + fsync, ``os.replace``.  A failure at any point leaves
        the previous entry (if any) untouched.
        """
        body = canonical_json(payload)
        checksum = hashlib.sha256(body).hexdigest()
        envelope = {
            "schema": STORE_SCHEMA,
            "key": key,
            "sha256": checksum,
            "payload": payload,
        }
        data = json.dumps(envelope, sort_keys=True, indent=1).encode("utf-8")
        path = self.path_for(key)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}{TMP_SUFFIX}")
        try:
            if self.hooks.before_write is not None:
                self.hooks.before_write(key, path)
            path.parent.mkdir(parents=True, exist_ok=True)
            # Hold the advisory lock across the whole temp-then-publish
            # window so another process's orphan sweep cannot unlink
            # the temp file before os.replace publishes it.
            with self._process_lock():
                with open(tmp, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                    if self.hooks.during_commit is not None:
                        # The kill-mid-commit seam: raising KilledWriter
                        # here models a writer dying after writing bytes
                        # but before publishing.
                        self.hooks.during_commit(key, tmp)
                os.replace(tmp, path)
        except KilledWriter:
            raise
        except OSError:
            self.stats.bump("io_errors")
            try:
                tmp.unlink()
            except OSError:
                pass
            return False
        self.stats.bump("writes")
        self._remember(key, _Entry(payload=payload, checksum=checksum))
        return True

    def _remember(self, key: str, entry: _Entry) -> None:
        if self.memory_entries <= 0:
            return
        with self._lock:
            self._memory[key] = entry
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)
                self.stats.bump("evictions")

    def forget_memory(self, key: Optional[str] = None) -> None:
        """Drop the in-memory layer (or one key) — chaos/tests use this
        to force the next read through the disk path."""
        with self._lock:
            if key is None:
                self._memory.clear()
            else:
                self._memory.pop(key, None)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def keys(self) -> Iterator[str]:
        """All committed entry keys currently on disk."""
        for path in sorted(self.root.glob(f"*/*{ENTRY_SUFFIX}")):
            if path.parent.name == QUARANTINE_DIR:
                continue
            yield path.stem

    def entry_count(self) -> int:
        return sum(1 for _ in self.keys())

    def verify(self) -> Tuple[int, int]:
        """Scan every entry through the checked read path.

        Returns ``(intact, quarantined)``; after a verify, every
        remaining entry decodes cleanly.  Chaos sweeps call this to
        assert a faulted store converges back to a fully-intact state.
        """
        intact = 0
        quarantined_before = self.stats.quarantined
        for key in list(self.keys()):
            self.forget_memory(key)
            if self.get(key) is not None:
                intact += 1
        return intact, self.stats.quarantined - quarantined_before
