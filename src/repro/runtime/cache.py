"""On-disk content-addressed result cache for sweep execution.

Entries are keyed by the *content* of the computation: a task token
(implementation name + every parameter) combined with a fingerprint of
the ``repro`` source tree.  Any code change — a new accounting term, a
tightened model — changes the fingerprint, so stale results can never
be served; re-running a sweep after an edit recomputes everything,
re-running after an interruption recomputes only what is missing
(resumable sweeps).

Values are pickled :class:`~repro.factorizations.common.FactorizationResult`
objects (or any picklable sweep row).  Writes are atomic
(temp-file + rename), so a killed sweep never leaves a truncated entry.

Every lookup is accounted through :mod:`repro.obs`: the entry path
carries the token digest and the fingerprint *separately*
(``{token-digest}.{fingerprint-prefix}.pkl``), so a miss whose token
digest exists under another fingerprint is counted as **stale**
(invalidated by a code edit) rather than cold.  A readable file that
fails to unpickle is **corrupt**: it is counted, deleted (so the next
write is not fighting a poisoned entry), and logged as a one-line
warning with the offending path.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import os
import pathlib
import pickle
import tempfile
import time
from typing import Any

from .. import obs

__all__ = ["ResultCache", "code_fingerprint"]

_log = logging.getLogger(__name__)

#: Filename chars taken from the fingerprint (hex; 16 chars = 64 bits,
#: far beyond collision risk for the handful of code versions sharing
#: one cache directory).
_FP_CHARS = 16


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every ``repro`` source file (path + bytes).

    Computed once per process; any change to the package — accounting,
    models, schedules — yields a new fingerprint and therefore a cold
    cache.
    """
    import repro

    root = pathlib.Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


class ResultCache:
    """Content-addressed pickle store under one directory.

    Parameters
    ----------
    root:
        Cache directory (created on first write).
    fingerprint:
        Code fingerprint folded into every key; defaults to
        :func:`code_fingerprint` of the live ``repro`` tree.  Tests pin
        it to exercise stale-fingerprint behaviour.

    ``hits``/``misses`` count every lookup (``misses`` includes stale
    and corrupt reads — anything that must recompute); ``stale`` and
    ``corrupt`` break the misses down.  The same counts feed the
    process-wide metrics registry under ``cache.*``.
    """

    def __init__(self, root: str | os.PathLike,
                 fingerprint: str | None = None) -> None:
        self.root = pathlib.Path(root)
        self.fingerprint = fingerprint or code_fingerprint()
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.corrupt = 0

    def _digest(self, token: str) -> str:
        return hashlib.sha256(token.encode()).hexdigest()

    def _path(self, token: str) -> pathlib.Path:
        return self.root / (f"{self._digest(token)}"
                            f".{self.fingerprint[:_FP_CHARS]}.pkl")

    def _has_stale_sibling(self, token: str) -> bool:
        """True when this token's digest exists under *another*
        fingerprint — the entry was invalidated by a code edit, not
        never computed."""
        own = self._path(token).name
        return any(p.name != own
                   for p in self.root.glob(f"{self._digest(token)}.*.pkl"))

    def get(self, token: str) -> Any | None:
        """The cached value for ``token``, or None (miss).

        Misses are classified: *cold* (never computed), *stale* (same
        token under a different code fingerprint) or *corrupt* (the
        entry exists but does not unpickle — counted, deleted, and
        warned about, never served).
        """
        tel = obs.default_telemetry()
        counters = tel.metrics
        path = self._path(token)
        with tel.span("cache.get", cat="cache", token=token) as sp:
            try:
                with open(path, "rb") as fh:
                    value = pickle.load(fh)
            except FileNotFoundError:
                self.misses += 1
                if self._has_stale_sibling(token):
                    self.stale += 1
                    counters.counter("cache.stale").inc()
                    sp.set(outcome="stale")
                else:
                    counters.counter("cache.misses").inc()
                    sp.set(outcome="miss")
                return None
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError) as exc:
                self.misses += 1
                self.corrupt += 1
                counters.counter("cache.corrupt").inc()
                sp.set(outcome="corrupt")
                _log.warning(
                    "corrupt cache entry %s (%s: %s) — deleting and "
                    "recomputing", path, type(exc).__name__, exc)
                try:
                    os.unlink(path)
                    counters.counter("cache.corrupt_deleted").inc()
                except OSError:
                    pass
                return None
            self.hits += 1
            counters.counter("cache.hits").inc()
            sp.set(outcome="hit")
            return value

    def put(self, token: str, value: Any) -> None:
        """Store ``value`` under ``token`` (atomic rename)."""
        tel = obs.default_telemetry()
        path = self._path(token)
        with tel.span("cache.put", cat="cache", token=token):
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(value, fh,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
            tel.metrics.counter("cache.puts").inc()

    def gc(self, max_age_s: float | None = None) -> int:
        """Prune unservable entries; returns how many were removed.

        Two classes of garbage accumulate in a long-lived cache
        directory:

        * entries whose filename fingerprint no longer matches this
          cache's — stale *forever* under the ``{digest}.{fp16}.pkl``
          scheme (the code that wrote them is gone, so no lookup can
          ever serve them again);
        * orphaned ``*.tmp`` files from writers killed between
          ``mkstemp`` and the atomic rename.

        With ``max_age_s``, entries of the *current* fingerprint older
        than that (by mtime) are pruned too — an explicit retention
        policy on top of the always-safe stale sweep.  Live lookups are
        unaffected: a pruned entry reads as a cold miss and recomputes.

        The count feeds the obs registry (``cache.gc_pruned`` /
        ``cache.gc_runs``).
        """
        tel = obs.default_telemetry()
        pruned = 0
        now = time.time()
        with tel.span("cache.gc", cat="cache",
                      max_age_s=max_age_s) as sp:
            if self.root.is_dir():
                own_fp = self.fingerprint[:_FP_CHARS]
                for path in self.root.glob("*.pkl"):
                    parts = path.name.split(".")
                    stale = len(parts) != 3 or parts[1] != own_fp
                    old = False
                    if not stale and max_age_s is not None:
                        try:
                            old = now - path.stat().st_mtime > max_age_s
                        except FileNotFoundError:
                            continue
                    if stale or old:
                        try:
                            path.unlink()
                            pruned += 1
                        except FileNotFoundError:
                            pass
                for tmp in self.root.glob("*.tmp"):
                    try:
                        if now - tmp.stat().st_mtime > 3600.0:
                            tmp.unlink()
                            pruned += 1
                    except FileNotFoundError:
                        pass
            sp.set(pruned=pruned)
        tel.metrics.counter("cache.gc_pruned").inc(pruned)
        tel.metrics.counter("cache.gc_runs").inc()
        return pruned

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.pkl"))
