"""Mmap'd open-addressing table: a fixed-byte-cap visited set.

The table is one memory-mapped file of ``capacity`` unsigned 64-bit
slots (capacity = the largest power of two whose slots fit ``mem_cap``
bytes).  A key is placed by splitmix64 probing with linear scan; slot
value 0 means *empty* (the one key equal to 0 — possible only with
probability 2⁻⁶⁴ for fingerprints, never for reachable packed snapshot
states — is tracked by a side flag).  Python-object overhead per state
is zero: memory is the file's pages, which the OS caches and evicts,
and the byte cap is exact by construction.

The cap is a *contract*, not a hint: once the table passes its load
limit (87.5%, past which linear probing degrades sharply) the store
raises :class:`~repro.store.base.StoreFullError` instead of silently
growing — the spill backend is the right tool for sets that outgrow a
fixed table.
"""

from __future__ import annotations

import mmap
from pathlib import Path
from typing import Dict, Iterator, Optional

from repro.checker.fingerprint import splitmix64
from repro.store.base import FingerprintStore, StoreFullError, require_u64

_SLOT_BYTES = 8
#: Numerator/denominator of the maximum load factor (7/8).
_LOAD_NUM, _LOAD_DEN = 7, 8
_MIN_SLOTS = 1024


def _capacity_for(mem_cap: int) -> int:
    """Largest power-of-two slot count whose table fits ``mem_cap``."""
    slots = max(_MIN_SLOTS, mem_cap // _SLOT_BYTES)
    return 1 << (slots.bit_length() - 1)


class MmapStore(FingerprintStore):
    """Open-addressing u64 table over a memory-mapped file."""

    backend = "mmap"

    def __init__(self, directory: Path, mem_cap: int) -> None:
        self.capacity = _capacity_for(mem_cap)
        self._mask = self.capacity - 1
        self._limit = self.capacity * _LOAD_NUM // _LOAD_DEN
        self.path = Path(directory) / "table.u64"
        size = self.capacity * _SLOT_BYTES
        # A fresh table every run: resume re-populates from the
        # checkpoint dump, so stale slots must not survive.
        with open(self.path, "wb") as handle:
            handle.truncate(size)
        self._file = open(self.path, "r+b")
        self._map: Optional[mmap.mmap] = mmap.mmap(self._file.fileno(), size)
        self._slots = memoryview(self._map).cast("Q")
        self._count = 0
        self._has_zero = False
        self._probes = 0

    # ------------------------------------------------------------------
    def add(self, key: int) -> bool:
        require_u64(key)
        if key == 0:
            if self._has_zero:
                return False
            self._check_room()
            self._has_zero = True
            self._count += 1
            return True
        slots = self._slots
        mask = self._mask
        index = splitmix64(key) & mask
        probes = 1
        while True:
            value = slots[index]
            if value == key:
                self._probes += probes
                return False
            if value == 0:
                self._probes += probes
                self._check_room()
                slots[index] = key
                self._count += 1
                return True
            index = (index + 1) & mask
            probes += 1

    def __contains__(self, key: int) -> bool:
        require_u64(key)
        if key == 0:
            return self._has_zero
        slots = self._slots
        mask = self._mask
        index = splitmix64(key) & mask
        while True:
            value = slots[index]
            if value == key:
                return True
            if value == 0:
                return False
            index = (index + 1) & mask

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[int]:
        if self._has_zero:
            yield 0
        slots = self._slots
        for index in range(self.capacity):
            value = slots[index]
            if value:
                yield value

    # ------------------------------------------------------------------
    def _check_room(self) -> None:
        if self._count >= self._limit:
            raise StoreFullError(
                f"mmap table full: {self._count} keys at its"
                f" {_LOAD_NUM}/{_LOAD_DEN} load limit"
                f" (capacity {self.capacity} slots,"
                f" {self.capacity * _SLOT_BYTES} bytes) — raise --mem-cap"
                f" or switch to the spill backend (--store spill)"
            )

    def file_bytes(self) -> int:
        return self.capacity * _SLOT_BYTES

    def counters(self) -> Dict[str, int]:
        return {
            "entries": self._count,
            "capacity": self.capacity,
            "probes": self._probes,
        }

    def flush(self) -> None:
        if self._map is not None:
            self._map.flush()

    def close(self) -> None:
        if self._map is not None:
            self._slots.release()
            self._map.close()
            self._map = None
            self._file.close()
        super().close()
