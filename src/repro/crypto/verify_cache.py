"""Process-wide signature-verification memo.

Every layer of the proof pipeline re-checks the same immutable
certificates: ``validate_proof`` walks a chain whose links were already
verified at publication, :meth:`WalletStore.from_bytes` re-verifies on
every load, and discovery re-validates whatever a remote wallet served.
Because keys, signing bytes, and signatures are all immutable, a
*positive* verification outcome can never change -- so it is memoized
here, keyed by ``(algorithm, key bytes, signing-bytes digest,
signature)``, and each certificate's signature is verified at most once
per process.

Two rules keep the memo invalidation-free by construction:

* **only successes are cached** -- a failed verify always re-runs the
  full check and re-raises/returns through the normal path, so an
  attacker cannot plant a cached negative and a flaky failure cannot
  stick;
* **the key covers the complete verification question** -- algorithm,
  key material, SHA-256 of the signed bytes, and the signature itself.
  Nothing mutable participates, so there is nothing to invalidate.

The memo is a bounded LRU (default 8192 entries). Disable it globally
with :func:`set_enabled` (the CLI's ``--no-crypto-cache``), temporarily
with the :func:`disabled` context manager, or per instance with
``VerificationMemo(enabled=False)``; outcomes are identical either way,
only latency changes (asserted by ``tests/crypto/test_verify_cache.py``).

Scoping
-------

The sharded service layer hosts several wallet partitions in one
process, and each shard must own its own memo (partitioned capacity is
what makes the shards scale -- see docs/PERFORMANCE.md).  :func:`scoped`
installs a per-context :class:`VerificationMemo` in a
``contextvars.ContextVar``; every module-level function (and so every
``PublicKey.verify`` call) inside the ``with`` block uses that instance.
Outside any scope the process-wide ``_MEMO`` default applies, so
existing callers and the ``cache_info()`` contract are unchanged.
"""

from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Optional, Tuple

from repro import obs

DEFAULT_MAXSIZE = 8192

# A memo key: (algorithm, key bytes, sha256(signing bytes), signature).
MemoKey = Tuple[str, bytes, bytes, bytes]


class VerificationMemo:
    """Bounded LRU of signatures that have verified successfully.

    The hit/miss/eviction tallies live in the process-wide
    :mod:`repro.obs` registry (``drbac_crypto_memo_*_total``); the
    ``hits``/``misses``/``evictions``/``object_hits`` attributes remain
    readable exactly as before, as views over those counters.
    """

    __slots__ = ("maxsize", "_entries", "enabled",
                 "_c_hits", "_c_misses", "_c_evictions", "_c_object_hits")

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE,
                 enabled: bool = True) -> None:
        self.maxsize = maxsize
        self._entries: "OrderedDict[MemoKey, bool]" = OrderedDict()
        instance = obs.next_instance()
        reg = obs.registry()
        self._c_hits = reg.counter(
            "drbac_crypto_memo_hits_total", instance=instance)
        self._c_misses = reg.counter(
            "drbac_crypto_memo_misses_total", instance=instance)
        self._c_evictions = reg.counter(
            "drbac_crypto_memo_evictions_total", instance=instance)
        # Verifications short-circuited by a per-object flag on an
        # immutable Delegation/Revocation (set after its first success);
        # those never reach the key computation below.
        self._c_object_hits = reg.counter(
            "drbac_crypto_memo_object_hits_total", instance=instance)
        self.enabled = enabled

    @property
    def hits(self) -> int:
        return self._c_hits.value

    @property
    def misses(self) -> int:
        return self._c_misses.value

    @property
    def evictions(self) -> int:
        return self._c_evictions.value

    @property
    def object_hits(self) -> int:
        return self._c_object_hits.value

    def lookup(self, key: MemoKey) -> bool:
        """True iff ``key`` is known-good; updates hit/miss counters."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            self._c_hits.inc()
            return True
        self._c_misses.inc()
        return False

    def record(self, key: MemoKey) -> None:
        """Remember a *successful* verification (never call on failure)."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            return
        if len(entries) >= self.maxsize:
            entries.popitem(last=False)
            self._c_evictions.inc()
        entries[key] = True

    def clear(self) -> None:
        """Drop all entries; counters are preserved for inspection."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def info(self) -> dict:
        """``cache_info()``-style statistics snapshot."""
        return {
            "enabled": self.enabled,
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "object_hits": self.object_hits,
        }


_MEMO = VerificationMemo()

_SCOPED: "ContextVar[Optional[VerificationMemo]]" = ContextVar(
    "drbac_verify_memo", default=None)


def memo() -> VerificationMemo:
    """The current memo: the scoped instance, else the process-wide one."""
    current = _SCOPED.get()
    return _MEMO if current is None else current


@contextmanager
def scoped(instance: Optional[VerificationMemo] = None, *,
           maxsize: int = DEFAULT_MAXSIZE):
    """Install an isolated memo for this context (fresh unless injected).

    A fresh memo inherits the global enable switch, and its counters
    register in whatever :mod:`repro.obs` registry is current -- enter
    ``obs.scoped()`` first to keep a shard's tallies private.  Rides
    ``contextvars``: nests, propagates into tasks, and must be re-entered
    by worker threads/processes (see ``repro.service.shard``).
    """
    current = instance if instance is not None else VerificationMemo(
        maxsize=maxsize, enabled=_MEMO.enabled)
    token = _SCOPED.set(current)
    try:
        yield current
    finally:
        _SCOPED.reset(token)


def enabled() -> bool:
    return memo().enabled


def set_enabled(value: bool) -> None:
    """Enable/disable the current memo (and the per-object fast flags)."""
    memo().enabled = bool(value)


def note_object_hit() -> None:
    """Count a verification short-circuited by a per-object flag."""
    memo()._c_object_hits.inc()


def cache_clear() -> None:
    memo().clear()


def cache_info() -> dict:
    return memo().info()


def configure(maxsize: Optional[int] = None) -> None:
    """Adjust the memo bound; entries beyond the new bound are evicted."""
    if maxsize is not None:
        if maxsize < 1:
            raise ValueError("memo maxsize must be positive")
        current = memo()
        current.maxsize = maxsize
        while len(current._entries) > maxsize:
            current._entries.popitem(last=False)
            current._c_evictions.inc()


@contextmanager
def disabled():
    """Temporarily run with the memo off (tests, honest benchmarks)."""
    current = memo()
    previous = current.enabled
    current.enabled = False
    try:
        yield
    finally:
        current.enabled = previous
