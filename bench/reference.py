"""A fixed reference computation that measures how fast the host runs now.

The benchmark's hosts are shared: the same op of the same program runs
at anything from 0.6 to 1.4 times its usual speed, in episodes lasting
seconds to minutes.  Every process of a run therefore times
:func:`reference_work` before each timed op.  The run's time metrics are
scaled by ``REFERENCE_MS / median(reference times)``: they read as the
time the op would take on a host where the reference takes
:data:`REFERENCE_MS`, so a slow episode that stretches both cancels out.

The reference has no ``repro`` code in it, so no change to the program
moves it.  It mixes the kinds of work the program does, because they
slow down by different amounts in an episode: interpreter arithmetic,
string formatting and dict lookups (which a slow episode stretches about
twice as much as it stretches a trace op), allocation of small objects,
and dependent loads over a working set larger than a core's cache (about
four fifths as much).  It runs with the garbage collector off, so the
size of the program's heap does not enter its time.  Between timings it
keeps only the load chain, a 4 MiB array that holds no references and
that the collector never scans.  The reference adds about 8 MiB to each
process's peak RSS.
"""

from __future__ import annotations

import gc
import hashlib
from array import array
from time import perf_counter

#: Median milliseconds :func:`reference_work` took on the 2-core VM the
#: benchmark was written on; time metrics are expressed at this speed.
REFERENCE_MS = 75.0

#: Entries of the load chain: 4 MiB, twice a core's L2 cache.
_CHAIN_LENGTH = 1 << 20
_chain: array | None = None


class _Record:
    __slots__ = ("key", "index", "text")

    def __init__(self, key: tuple[int, str], index: int, text: str) -> None:
        self.key = key
        self.index = index
        self.text = text


def _arithmetic(rounds: int = 60_000) -> int:
    table = {f"k{i}": (i, str(i)) for i in range(256)}
    total = 0
    for i in range(rounds):
        key = f"k{i & 255}"
        number, text = table[key]
        total += number * (i % 7) + len(text)
        if not i & 63:
            total ^= int.from_bytes(hashlib.blake2s(key.encode()).digest()[:4], "big")
    return total


def _allocation(rounds: int = 7_000) -> int:
    groups: dict[tuple[int, str], list[_Record]] = {}
    total = 0
    for i in range(rounds):
        key = ((i * 7919) % 500, f"h{i % 97}")
        record = _Record(key, i, str(i))
        groups.setdefault(key, []).append(record)
        if not i % 50:
            total ^= int(hashlib.sha256(record.text.encode()).hexdigest()[:8], 16)
    return total + sum(len(records) for _, records in sorted(groups.items())[:3])


def _loads(steps: int = 80_000) -> int:
    """Follow the chain: each load's address is the previous load's value."""
    global _chain
    if _chain is None:
        # A full-period linear congruential step (multiplier 1 mod 4, odd
        # increment), so the walk visits every entry in scattered order.
        mask = _CHAIN_LENGTH - 1
        chain = array("I", [0]) * _CHAIN_LENGTH
        for i in range(_CHAIN_LENGTH):
            chain[i] = (10541 * i + 12345) & mask
        _chain = chain
    chain, index = _chain, 0
    for _ in range(steps):
        index = chain[index]
    return index


def reference_work() -> int:
    return _arithmetic() ^ _allocation() ^ _loads()


def time_reference() -> float:
    """Seconds one :func:`reference_work` takes, with the collector off.

    The first call also builds the load chain, once per process, before
    its clock starts.
    """
    if _chain is None:
        _loads(1)
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        reference_work()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()
