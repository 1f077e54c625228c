"""Load compiled kernels and wrap them in the batch-kernel interface.

Libraries are opened with ``ctypes.CDLL`` (no ``Python.h`` needed) and
typed from one signature table; the wrappers below pass numpy buffer
addresses (``array.ctypes.data``) as integers.

:class:`NativeKernel` subclasses
:class:`~repro.checker.batch.BatchKernel` and overrides exactly the
hot methods the generated translation unit implements — expansion,
the scan micro-step, fingerprinting, in-level dedup, the visited set
(:class:`NativeVisited`), the vectorized safety mask,
canonicalization, and the C0/C1 selector phase — so the level loop,
the stores, and the POR phase-2 logic are shared verbatim with the
numpy kernel.  Every override is bit-identical to its numpy twin by
construction (same tables, same arithmetic, same ordering), which is
what lets the conformance matrix demand field-identical results rather
than mere verdict agreement.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

try:  # numpy is a soft dependency of the whole batch stack
    import numpy as np
except ImportError:  # pragma: no cover - exercised via native_available
    np = None  # type: ignore[assignment]

from repro.checker.batch import BatchKernel
from repro.checker.native.build import (
    NativeBuildError,
    build_library,
    find_compiler,
)
from repro.checker.native.generator import generate_source

if TYPE_CHECKING:
    from numpy.typing import NDArray

    from repro.checker.fast_snapshot import FastSnapshotSpec
    from repro.checker.symmetry import FastCanonicalizer

    U64Array = NDArray[np.uint64]
    BoolArray = NDArray[np.bool_]
    I64Array = NDArray[np.int64]

#: Kernel choices accepted everywhere a kernel can be named.
KERNEL_CHOICES = ("auto", "numpy", "native")


class NativeKernelUnavailable(RuntimeError):
    """The native kernel was requested but cannot be provided here."""


def native_available() -> bool:
    """True when a native kernel could actually be built and loaded.

    Requires numpy (the wrappers exchange numpy buffers), a C compiler
    on PATH, and no explicit opt-out via ``REPRO_NATIVE_DISABLE=1``
    (the test seam for the degradation paths).
    """
    if os.environ.get("REPRO_NATIVE_DISABLE") == "1":
        return False
    if np is None:
        return False
    return find_compiler() is not None


def resolve_kernel(requested: str) -> str:
    """The effective kernel name for a requested one.

    ``auto`` picks ``native`` when available, else ``numpy``; an
    explicit ``native`` also degrades to ``numpy`` when unavailable
    (library callers stay silent — service workers on heterogeneous
    hosts must not crash; the CLI warns via
    :func:`warn_kernel_fallback`).
    """
    if requested not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel {requested!r}; choose one of"
            f" {', '.join(KERNEL_CHOICES)}"
        )
    if requested in ("auto", "native"):
        return "native" if native_available() else "numpy"
    return "numpy"


_warned_fallback = False


def warn_kernel_fallback() -> None:
    """One stderr warning per process when ``native`` degrades."""
    global _warned_fallback
    if _warned_fallback:
        return
    _warned_fallback = True
    import sys

    print(
        "warning: --kernel native unavailable (no C compiler, no numpy,"
        " or REPRO_NATIVE_DISABLE=1); falling back to the numpy batch"
        " kernel — results are identical, only slower",
        file=sys.stderr,
    )


# ----------------------------------------------------------------------
# Library loading: one signature table, ctypes
# ----------------------------------------------------------------------

#: name -> (return C type, argument C types).  Pointer arguments are
#: passed as integer buffer addresses (``ndarray.ctypes.data``); 0 is
#: NULL.
_SIGNATURES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "rk_state_bits": ("int64_t", ()),
    "rk_expand_level": (
        "int64_t",
        (
            "const uint64_t *",
            "int64_t",
            "const int64_t *",
            "uint64_t *",
            "int64_t *",
        ),
    ),
    "rk_scan_step": (
        "void",
        ("const uint64_t *", "const uint64_t *", "int64_t", "int64_t",
         "uint64_t *"),
    ),
    "rk_fingerprint": (
        "void",
        ("const uint64_t *", "int64_t", "uint64_t *"),
    ),
    "rk_canonical": (
        "void",
        ("const uint64_t *", "int64_t", "uint64_t *"),
    ),
    "rk_orbit_sizes": (
        "void",
        ("const uint64_t *", "int64_t", "int64_t *"),
    ),
    "rk_unique_first": (
        "int64_t",
        ("const uint64_t *", "int64_t", "uint64_t *", "int64_t *"),
    ),
    "rk_visited_new": ("void *", ("int64_t",)),
    "rk_visited_free": ("void", ("void *",)),
    "rk_visited_slots": ("int64_t", ("void *",)),
    "rk_visited_admit": (
        "int64_t",
        (
            "void *",
            "const uint64_t *",
            "int64_t",
            "int64_t",
            "int64_t *",
            "int64_t *",
        ),
    ),
    "rk_visited_contains": (
        "void",
        ("void *", "const uint64_t *", "int64_t", "unsigned char *"),
    ),
    "rk_violations": (
        "void",
        ("const uint64_t *", "int64_t", "unsigned char *"),
    ),
    "rk_por_c0c1": (
        "void",
        (
            "const uint64_t *",
            "int64_t",
            "unsigned char *",
            "int64_t *",
            "unsigned char *",
            "int64_t *",
        ),
    ),
}


class NativeLibrary:
    """A loaded kernel: ``call(name, *int_args)`` with int pointers."""

    def __init__(self, fns: Dict[str, Callable[..., Any]]) -> None:
        self._fns = fns

    def call(self, name: str, *args: int) -> int:
        result = self._fns[name](*args)
        return 0 if result is None else int(result)


def _open_ctypes(path: str) -> NativeLibrary:
    import ctypes

    scalar = {"int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64}
    lib = ctypes.CDLL(path)
    fns: Dict[str, Callable[..., Any]] = {}
    for name, (ret, args) in _SIGNATURES.items():
        fn = getattr(lib, name)
        if ret == "void":
            fn.restype = None
        else:
            fn.restype = ctypes.c_void_p if ret.endswith("*") else scalar[ret]
        fn.argtypes = [
            ctypes.c_void_p if ctype.endswith("*") else scalar[ctype]
            for ctype in args
        ]
        fns[name] = fn
    return NativeLibrary(fns)


#: Loaded libraries by shared-object path, so repeated explores of the
#: same machine class reuse one dlopen.
_loaded: Dict[str, NativeLibrary] = {}


def _load_path(path: str) -> NativeLibrary:
    """dlopen ``path``, memoized per process."""
    cached = _loaded.get(path)
    if cached is None:
        cached = _loaded[path] = _open_ctypes(path)
    return cached


def load_library(source: str) -> NativeLibrary:
    """Compile (cache-aware) and dlopen the kernel for ``source``."""
    return _load_path(str(build_library(source)))


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


class NativeCanonicalizer:
    """Orbit reduction through the library's fused stabilizer tables."""

    def __init__(self, library: NativeLibrary, order: int) -> None:
        self._lib = library
        self.order = order

    def canonical_many(self, states: "U64Array") -> "U64Array":
        n = int(states.size)
        out = np.empty(n, dtype=np.uint64)
        if n:
            states = np.ascontiguousarray(states, dtype=np.uint64)
            self._lib.call(
                "rk_canonical", states.ctypes.data, n, out.ctypes.data
            )
        return out

    def orbit_sizes(self, states: "U64Array") -> "I64Array":
        n = int(states.size)
        out = np.empty(n, dtype=np.int64)
        if n:
            states = np.ascontiguousarray(states, dtype=np.uint64)
            self._lib.call(
                "rk_orbit_sizes", states.ctypes.data, n, out.ctypes.data
            )
        return out


class NativeVisited:
    """The library's visited set: an open-addressing hash set of exact
    u64 keys, C-owned behind a handle until :meth:`close`.

    The native twin of :class:`~repro.checker.batch.SortedVisited`.
    :meth:`admit` is one pass in generation order that dedups, probes,
    inserts and stops at the budget; the table doubles in place (see
    ``rk_vis_grow`` in the generated source).
    """

    def __init__(self, library: NativeLibrary, expected: int) -> None:
        self._lib = library
        self._handle = library.call("rk_visited_new", expected)
        if not self._handle:
            raise MemoryError("cannot allocate the native visited set")

    def admit(self, keys: "U64Array", limit: int) -> Tuple["I64Array", int]:
        n = int(keys.size)
        positions = np.empty(min(n, limit), dtype=np.int64)
        if n == 0:
            return positions, -1
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        trip = np.empty(1, dtype=np.int64)
        admitted = self._lib.call(
            "rk_visited_admit",
            self._handle,
            keys.ctypes.data,
            n,
            limit,
            positions.ctypes.data,
            trip.ctypes.data,
        )
        if admitted < 0:
            raise MemoryError("the native visited set cannot grow")
        return positions[:admitted], int(trip[0])

    def contains(self, keys: "U64Array") -> "BoolArray":
        n = int(keys.size)
        out = np.empty(n, dtype=np.uint8)
        if n:
            keys = np.ascontiguousarray(keys, dtype=np.uint64)
            self._lib.call(
                "rk_visited_contains",
                self._handle,
                keys.ctypes.data,
                n,
                out.ctypes.data,
            )
        return out.view(np.bool_)

    @property
    def slots(self) -> int:
        """Home slots of the current table (a power of two)."""
        return self._lib.call("rk_visited_slots", self._handle)

    def close(self) -> None:
        if self._handle:
            self._lib.call("rk_visited_free", self._handle)
            self._handle = 0


class NativeKernel(BatchKernel):
    """The compiled twin of :class:`~repro.checker.batch.BatchKernel`.

    Construction generates the specialized C source for ``spec`` (with
    ``canonicalizer``'s field maps baked in when given and non-trivial;
    the library fills its fused tables from them on its first
    canonicalization), compiles it through the disk cache, and dlopens
    the result; :exc:`NativeKernelUnavailable` or
    :exc:`~repro.checker.native.build.NativeBuildError` signal the
    caller to fall back to the numpy kernel.
    """

    kernel_name = "native"

    def __init__(
        self,
        spec: "FastSnapshotSpec",
        canonicalizer: Optional["FastCanonicalizer"] = None,
    ) -> None:
        super().__init__(spec)
        if not native_available():
            raise NativeKernelUnavailable(
                "native kernel unavailable: needs numpy and a C compiler"
                " (and REPRO_NATIVE_DISABLE unset)"
            )
        field_maps: Tuple[Any, ...] = ()
        if canonicalizer is not None and not canonicalizer.trivial:
            field_maps = tuple(canonicalizer.field_maps)
        self._baked_for = canonicalizer if field_maps else None
        self._lib = load_library(generate_source(spec, field_maps))
        if self._lib.call("rk_state_bits") != spec.state_bits:
            raise NativeKernelUnavailable(
                "compiled kernel does not match this spec's layout"
            )

    # -- expansion -----------------------------------------------------
    def expand_level(
        self,
        frontier: "U64Array",
        selected: Optional["I64Array"] = None,
    ) -> Tuple["U64Array", "I64Array"]:
        spec = self.spec
        n_states = int(frontier.shape[0])
        counts = np.zeros(n_states, dtype=np.int64)
        if n_states == 0:
            return np.empty(0, dtype=np.uint64), counts
        frontier = np.ascontiguousarray(frontier, dtype=np.uint64)
        out = np.empty(n_states * spec.n * spec.m, dtype=np.uint64)
        if selected is None:
            selected_address = 0
        else:
            selected = np.ascontiguousarray(selected, dtype=np.int64)
            selected_address = selected.ctypes.data
        total = self._lib.call(
            "rk_expand_level",
            frontier.ctypes.data,
            n_states,
            selected_address,
            out.ctypes.data,
            counts.ctypes.data,
        )
        return out[:total], counts

    def _scan_step(
        self,
        states: "U64Array",
        loc: "U64Array",
        pid: int,
    ) -> "U64Array":
        n = int(states.size)
        out = np.empty(n, dtype=np.uint64)
        if n:
            states = np.ascontiguousarray(states, dtype=np.uint64)
            loc = np.ascontiguousarray(loc, dtype=np.uint64)
            self._lib.call(
                "rk_scan_step",
                states.ctypes.data,
                loc.ctypes.data,
                n,
                pid,
                out.ctypes.data,
            )
        return out

    # -- keys ----------------------------------------------------------
    def fingerprint_many(self, states: "U64Array") -> "U64Array":
        n = int(states.size)
        out = np.empty(n, dtype=np.uint64)
        if n:
            states = np.ascontiguousarray(states, dtype=np.uint64)
            self._lib.call(
                "rk_fingerprint", states.ctypes.data, n, out.ctypes.data
            )
        return out

    def unique_first(
        self, keys: "U64Array"
    ) -> Tuple["U64Array", "I64Array"]:
        n = int(keys.size)
        if n == 0:
            return keys, np.empty(0, dtype=np.intp)
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        out_keys = np.empty(n, dtype=np.uint64)
        out_first = np.empty(n, dtype=np.int64)
        unique = self._lib.call(
            "rk_unique_first",
            keys.ctypes.data,
            n,
            out_keys.ctypes.data,
            out_first.ctypes.data,
        )
        if unique < 0:  # allocation failure, or 2**32 keys or more
            return super().unique_first(keys)
        return out_keys[:unique], out_first[:unique]

    def make_visited(self, expected: int) -> "NativeVisited":
        return NativeVisited(self._lib, expected)

    # -- safety --------------------------------------------------------
    def violations(self, states: "U64Array") -> "BoolArray":
        n = int(states.size)
        out = np.empty(n, dtype=np.uint8)
        if n:
            states = np.ascontiguousarray(states, dtype=np.uint64)
            self._lib.call(
                "rk_violations", states.ctypes.data, n, out.ctypes.data
            )
        return out.view(np.bool_)

    # -- POR phase 1 ---------------------------------------------------
    def por_c0c1(
        self, frontier: "U64Array", tables: Any
    ) -> Tuple["BoolArray", "I64Array", "BoolArray", "I64Array"]:
        n = self.spec.n
        n_states = int(frontier.shape[0])
        qualified = np.zeros((n, n_states), dtype=np.uint8)
        nsucc = np.zeros((n, n_states), dtype=np.int64)
        is_scan = np.zeros((n, n_states), dtype=np.uint8)
        total = np.zeros(n_states, dtype=np.int64)
        if n_states:
            frontier = np.ascontiguousarray(frontier, dtype=np.uint64)
            self._lib.call(
                "rk_por_c0c1",
                frontier.ctypes.data,
                n_states,
                qualified.ctypes.data,
                nsucc.ctypes.data,
                is_scan.ctypes.data,
                total.ctypes.data,
            )
        return qualified.view(np.bool_), nsucc, is_scan.view(np.bool_), total

    # -- symmetry ------------------------------------------------------
    def make_canonicalizer(
        self, canonicalizer: Optional["FastCanonicalizer"]
    ) -> Optional[Any]:
        if canonicalizer is None or canonicalizer.trivial:
            return None
        if canonicalizer is self._baked_for:
            return NativeCanonicalizer(self._lib, canonicalizer.order)
        # A different canonicalizer's maps were not baked into this
        # translation unit; serve them through the numpy gather path.
        return super().make_canonicalizer(canonicalizer)


__all__ = [
    "KERNEL_CHOICES",
    "NativeBuildError",
    "NativeCanonicalizer",
    "NativeKernel",
    "NativeKernelUnavailable",
    "NativeLibrary",
    "NativeVisited",
    "load_library",
    "native_available",
    "resolve_kernel",
    "warn_kernel_fallback",
]
