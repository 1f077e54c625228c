"""Load compiled kernels and wrap them in the batch-kernel interface.

Two dynamic-loading backends share one signature table: cffi in ABI
mode (``ffi.cdef`` + ``ffi.dlopen`` — no ``Python.h`` needed) when
cffi is importable, plain ``ctypes.CDLL`` otherwise.  Both receive
numpy buffer addresses (``array.ctypes.data``) as integers, so the
wrappers below are backend-agnostic.

:class:`NativeKernel` subclasses
:class:`~repro.checker.batch.BatchKernel` and overrides exactly the
hot methods the generated translation unit implements — expansion,
the scan micro-step, fingerprinting, in-level dedup, the merge into
the sorted visited array, the vectorized safety mask,
canonicalization, and the C0/C1 selector phase — so the
level loop, the visited set, the stores, and the POR phase-2 logic
are shared verbatim with the numpy kernel.  Every override is
bit-identical to its numpy twin by construction (same tables, same
arithmetic, same ordering), which is what lets the conformance matrix
demand field-identical results rather than mere verdict agreement.
"""

from __future__ import annotations

import functools
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
    cached_library_for,
    find_compiler,
    record_library_for,
)
from repro.checker.native.generator import generate_source, spec_cache_key

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
# Library loading: one signature table, two backends
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
    "rk_probe_sorted": (
        "void",
        (
            "const uint64_t *",
            "int64_t",
            "const uint64_t *",
            "int64_t",
            "unsigned char *",
            "int64_t *",
        ),
    ),
    "rk_merge_sorted": (
        "int64_t",
        (
            "const uint64_t *",
            "int64_t",
            "const int64_t *",
            "const uint64_t *",
            "int64_t",
            "uint64_t *",
        ),
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


@functools.cache
def _cffi_ffi() -> Any:
    """The process's one cffi ``FFI``: every class's library exports
    :data:`_SIGNATURES`, so the ``cdef`` is parsed once, not per class."""
    import cffi

    ffi = cffi.FFI()
    declarations = []
    for name, (ret, args) in _SIGNATURES.items():
        arg_list = ", ".join(args) if args else "void"
        declarations.append(f"{ret} {name}({arg_list});")
    ffi.cdef("\n".join(declarations))
    return ffi


def _open_cffi(path: str) -> NativeLibrary:
    ffi = _cffi_ffi()
    lib = ffi.dlopen(path)
    fns: Dict[str, Callable[..., Any]] = {}
    for name, (_ret, args) in _SIGNATURES.items():
        raw = getattr(lib, name)

        def call(
            *values: int,
            _raw: Any = raw,
            _args: Tuple[str, ...] = args,
            _cast: Any = ffi.cast,
        ) -> Any:
            converted = [
                _cast(ctype, value) if ctype.endswith("*") else value
                for ctype, value in zip(_args, values)
            ]
            return _raw(*converted)

        fns[name] = call
    return NativeLibrary(fns)


def _open_ctypes(path: str) -> NativeLibrary:
    import ctypes

    scalar = {"int64_t": ctypes.c_int64, "uint64_t": ctypes.c_uint64}
    lib = ctypes.CDLL(path)
    fns: Dict[str, Callable[..., Any]] = {}
    for name, (ret, args) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype = None if ret == "void" else scalar[ret]
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
    """dlopen ``path`` (cffi preferred), memoized per process."""
    cached = _loaded.get(path)
    if cached is not None:
        return cached
    try:
        library = _open_cffi(path)
    except ImportError:  # no cffi: the ctypes backend
        library = _open_ctypes(path)
    _loaded[path] = library
    return library


def load_library(source: str) -> NativeLibrary:
    """Compile (cache-aware) and dlopen the kernel for ``source``."""
    return _load_path(str(build_library(source)))


# ----------------------------------------------------------------------
# The kernel
# ----------------------------------------------------------------------


class NativeCanonicalizer:
    """Orbit reduction through the baked stabilizer tables."""

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


class NativeKernel(BatchKernel):
    """The compiled twin of :class:`~repro.checker.batch.BatchKernel`.

    Construction generates the specialized C source for ``spec`` (with
    ``canonicalizer``'s stabilizer tables baked in when given and
    non-trivial), compiles it through the disk cache, and dlopens the
    result; :exc:`NativeKernelUnavailable` or
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
        baked: Tuple[Any, ...] = ()
        if canonicalizer is not None and not canonicalizer.trivial:
            baked = tuple(canonicalizer.element_tables)
        self._baked_for = canonicalizer if baked else None
        # Warm-cache fast path: a spec-derived index key finds the
        # compiled object without regenerating the (multi-megabyte,
        # for symmetry kernels) C source just to hash it.
        meta_key = spec_cache_key(spec, baked)
        cached_so = cached_library_for(meta_key)
        if cached_so is not None:
            self._lib = _load_path(str(cached_so))
        else:
            shared_object = build_library(generate_source(spec, baked))
            record_library_for(meta_key, shared_object)
            self._lib = _load_path(str(shared_object))
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

    def probe_sorted(
        self, sorted_keys: "U64Array", values: "U64Array"
    ) -> Tuple["BoolArray", "I64Array"]:
        n = int(values.size)
        present = np.empty(n, dtype=np.uint8)
        at = np.empty(n, dtype=np.int64)
        if n:
            sorted_keys = np.ascontiguousarray(sorted_keys, dtype=np.uint64)
            values = np.ascontiguousarray(values, dtype=np.uint64)
            self._lib.call(
                "rk_probe_sorted",
                sorted_keys.ctypes.data,
                int(sorted_keys.size),
                values.ctypes.data,
                n,
                present.ctypes.data,
                at.ctypes.data,
            )
        return present.view(np.bool_), at

    def merge_sorted(
        self, sorted_keys: "U64Array", at: "I64Array", fresh: "U64Array"
    ) -> "U64Array":
        n = int(sorted_keys.size)
        n_fresh = int(fresh.size)
        if int(at.size) != n_fresh:
            raise ValueError("merge_sorted needs one position per fresh key")
        out = np.empty(n + n_fresh, dtype=np.uint64)
        sorted_keys = np.ascontiguousarray(sorted_keys, dtype=np.uint64)
        at = np.ascontiguousarray(at, dtype=np.int64)
        fresh = np.ascontiguousarray(fresh, dtype=np.uint64)
        status = self._lib.call(
            "rk_merge_sorted",
            sorted_keys.ctypes.data,
            n,
            at.ctypes.data,
            fresh.ctypes.data,
            n_fresh,
            out.ctypes.data,
        )
        if status < 0:
            raise ValueError(
                "merge_sorted positions must ascend within the sorted keys"
            )
        return out

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
        # Tables for a different canonicalizer were not baked into this
        # translation unit; serve them through the numpy gather path.
        return super().make_canonicalizer(canonicalizer)


__all__ = [
    "KERNEL_CHOICES",
    "NativeBuildError",
    "NativeCanonicalizer",
    "NativeKernel",
    "NativeKernelUnavailable",
    "NativeLibrary",
    "load_library",
    "native_available",
    "resolve_kernel",
    "warn_kernel_fallback",
]
