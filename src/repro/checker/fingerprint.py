"""64-bit state fingerprints for memory-lean exploration (TLC-style).

TLC's central scaling trick is to store a *fingerprint set* rather than
the states themselves: each reached state is hashed to a 64-bit value
and only the hash is remembered.  Per-state memory collapses (a packed
integer in a hash set versus a full state object plus parent/index
bookkeeping), at the price of a vanishingly small probability that two
distinct states collide and a reachable state is silently skipped.

Only the generic object-encoded explorer (:mod:`repro.checker.explorer`)
uses that trade.  The packed-state engines key their visited sets on
the exact state — at N<=3 a packed state already fits 64 bits, so a
fingerprint would save no memory and only add the collision risk — and
use :func:`fingerprint_int` purely as a hash: to assign states to
frontier shards (:mod:`repro.checker.parallel`), and inside the stores'
probing and Bloom filters.

- :func:`fingerprint_int` — arbitrary-precision packed states folded
  64 bits at a time through splitmix64;
- :func:`fingerprint_state` — object-encoded :class:`GlobalState`\\ s,
  mixed from the state's cached structural hash.  NOTE: Python string
  hashing is randomized per interpreter, so these fingerprints are only
  stable *within* one process tree (fork workers inherit the seed);
  ``fingerprint_int`` is fully deterministic across processes.
- :func:`collision_probability` — the birthday bound of fingerprint
  mode, reported in docs and the benchmark harness.

The splitmix64 finalizer is the standard one (Steele et al., used by
Java's SplittableRandom and most 64-bit hash mixers): it is bijective
on 64-bit words and passes avalanche tests, so structured, nearly-equal
packed states (the common case in BFS) spread uniformly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

from repro.checker.constants import (
    MASK64,
    SPLITMIX_GAMMA,
    SPLITMIX_MULT1,
    SPLITMIX_MULT2,
    SPLITMIX_SHIFT1,
    SPLITMIX_SHIFT2,
    SPLITMIX_SHIFT3,
)

if TYPE_CHECKING:
    import numpy as np
    from numpy.typing import NDArray

# The constants live in repro.checker.constants, shared bit for bit
# with the batched numpy mix (repro.checker.batch); the historical
# private names stay bound for callers that imported them.
_MASK64 = MASK64
#: Seed for the iterated fold; any odd constant works, this is the
#: golden-ratio constant splitmix64 itself increments by.
_SEED = SPLITMIX_GAMMA


def splitmix64(value: int) -> int:
    """The splitmix64 finalizer: a bijective 64-bit avalanche mix."""
    value &= MASK64
    value = ((value ^ (value >> SPLITMIX_SHIFT1)) * SPLITMIX_MULT1) & MASK64
    value = ((value ^ (value >> SPLITMIX_SHIFT2)) * SPLITMIX_MULT2) & MASK64
    return value ^ (value >> SPLITMIX_SHIFT3)


def splitmix64_many(values: "NDArray[np.uint64]") -> "NDArray[np.uint64]":
    """The splitmix64 finalizer over a whole numpy u64 array.

    numpy uint64 arithmetic wraps modulo 2**64 — the same semantics the
    scalar :func:`splitmix64` gets from its explicit ``& MASK64`` — so
    the output is element-wise identical to it.  Only operators are
    applied, so this module never imports numpy itself.
    """
    mixed = (values ^ (values >> SPLITMIX_SHIFT1)) * SPLITMIX_MULT1
    mixed = (mixed ^ (mixed >> SPLITMIX_SHIFT2)) * SPLITMIX_MULT2
    return mixed ^ (mixed >> SPLITMIX_SHIFT3)


def fingerprint_int(state: int) -> int:
    """Fingerprint a non-negative packed-integer state to 64 bits.

    States at most 64 bits wide (every N<=3 snapshot configuration)
    take a single mix; wider states fold limb by limb, so the function
    works unchanged for the N>=4 sweeps later PRs open up.
    """
    mixed = splitmix64(_SEED ^ (state & _MASK64))
    state >>= 64
    while state:
        mixed = splitmix64(mixed ^ (state & _MASK64))
        state >>= 64
    return mixed


def fingerprint_state(state: Hashable) -> int:
    """Fingerprint a hashable object state (e.g. ``GlobalState``).

    Builds on the object's (cached) structural hash, then remixes so
    that Python's weaker tuple-hash patterns do not leak into the
    fingerprint distribution.
    """
    return splitmix64(hash(state) & _MASK64)


def collision_probability(n_states: int) -> float:
    """Birthday bound: P(any two of ``n_states`` fingerprints collide).

    For n states uniformly hashed to 64 bits this is approximately
    n(n-1)/2^65 — about 3e-11 for the ~3*10^4 states of an N=2 sweep,
    but already ~8e-4 at the 1.75*10^8 representatives an exhaustive
    N=3 attempt reached.
    """
    return min(1.0, n_states * (n_states - 1) / 2.0 / float(1 << 64))
