"""Compile generated kernels into shared objects, cached on disk.

The cache key is a hash of the compile flags and the emitted
translation unit — machine layout, wiring tables, the stabilizer's
field maps, and the generator version are all *in* the text, so a
change to any of them, or to the flags, produces a new key and a fresh
compile; nothing else can invalidate stale objects.  A source is a few
tens of kilobytes (the fused symmetry tables are filled at run time,
not baked), so every process generates and hashes it to find its
object.  Artifacts live under
``$REPRO_NATIVE_CACHE`` (or ``$XDG_CACHE_HOME/repro-native``, or
``~/.cache/repro-native``) as ``rk-<key>.c`` / ``rk-<key>.so`` pairs;
the ``.c`` file is kept beside the object for debuggability.

Builds are concurrency-safe: each builder compiles to a private
temporary name and ``os.replace``\\ s it into place, so parallel
workers racing on the same spec at worst compile twice.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
from pathlib import Path
from typing import List, Optional


class NativeBuildError(RuntimeError):
    """The C compiler failed (or is missing) for a generated kernel."""


def cache_root() -> Path:
    """The directory holding compiled kernels (not created here)."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-native"


def find_compiler() -> Optional[str]:
    """The first usable C compiler: ``$CC``, then cc, gcc, clang."""
    candidates: List[str] = []
    env_cc = os.environ.get("CC")
    if env_cc:
        candidates.append(env_cc)
    candidates.extend(["cc", "gcc", "clang"])
    for candidate in candidates:
        resolved = shutil.which(candidate)
        if resolved:
            return resolved
    return None


#: Compiler flags before the output and input paths; part of the key.
COMPILE_FLAGS = ("-O3", "-shared", "-fPIC")


def source_key(source: str) -> str:
    """Stable cache key: a 128-bit BLAKE2b digest of the compile flags
    and the translation unit text.  BLAKE2 is CPython's own
    implementation, so hashing loads no OpenSSL code into the process."""
    digest = hashlib.blake2b(" ".join(COMPILE_FLAGS).encode(), digest_size=16)
    digest.update(b"\0" + source.encode("utf-8"))
    return digest.hexdigest()


def build_library(source: str) -> Path:
    """The compiled ``.so`` for ``source``, building it on cache miss."""
    key = source_key(source)
    root = cache_root()
    shared_object = root / f"rk-{key}.so"
    if shared_object.exists():
        return shared_object
    compiler = find_compiler()
    if compiler is None:
        raise NativeBuildError(
            "no C compiler found (tried $CC, cc, gcc, clang)"
        )
    root.mkdir(parents=True, exist_ok=True)
    c_path = root / f"rk-{key}.c"
    tmp_c = root / f"rk-{key}.{os.getpid()}.tmp.c"
    tmp_so = root / f"rk-{key}.{os.getpid()}.tmp.so"
    tmp_c.write_text(source, encoding="utf-8")
    command = [compiler, *COMPILE_FLAGS, "-o", str(tmp_so), str(tmp_c)]
    try:
        completed = subprocess.run(
            command, capture_output=True, text=True, timeout=600
        )
    except (OSError, subprocess.TimeoutExpired) as exc:
        tmp_c.unlink(missing_ok=True)
        tmp_so.unlink(missing_ok=True)
        raise NativeBuildError(f"compiler invocation failed: {exc}") from exc
    if completed.returncode != 0:
        tmp_c.unlink(missing_ok=True)
        tmp_so.unlink(missing_ok=True)
        tail = (completed.stderr or "").strip().splitlines()[-8:]
        raise NativeBuildError(
            "kernel compilation failed"
            f" ({' '.join(command[:4])}...):\n" + "\n".join(tail)
        )
    os.replace(tmp_c, c_path)
    os.replace(tmp_so, shared_object)
    return shared_object
