"""Emit a C translation unit specialized to one packed snapshot machine.

The generated source is the native twin of :mod:`repro.checker.batch`:
successor expansion, the scan micro-step, splitmix64 fingerprinting,
orbit-min canonicalization (stabilizer permutation tables baked in as
``static const`` arrays), sorted in-level dedup, the merge into the
sorted visited array, the vectorized output check, and the C0/C1
bitmask phase of the POR ample selector.  Every
machine-dependent quantity — field offsets, masks, reset templates,
wiring shifts, footprint tables, symmetry gather tables — is burned
into the source as a ``#define`` or a constant array, so the compiler
sees loop bounds and shift distances as literals (the TLC/`pan`
specialize-then-compile move).

The module is deliberately free of numpy and of any build machinery:
it is a pure ``spec -> str`` function, which keeps it cheap to test
and lets the disk cache key on nothing but the emitted text (see
:mod:`repro.checker.native.build`).
"""

from __future__ import annotations

import hashlib
from array import array
from typing import TYPE_CHECKING, Dict, List, Mapping, Sequence, Tuple

from repro.checker.constants import (
    MASK64,
    SPLITMIX_GAMMA,
    SPLITMIX_MULT1,
    SPLITMIX_MULT2,
    SPLITMIX_SHIFT1,
    SPLITMIX_SHIFT2,
    SPLITMIX_SHIFT3,
)
from repro.checker.por import export_footprint_tables

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.checker.fast_snapshot import FastSnapshotSpec

#: Bump when the emitted code changes shape without a table change, so
#: stale cached objects are never dlopened against new wrappers.
GENERATOR_VERSION = 6


def _u64(value: int) -> str:
    """A C ``uint64_t`` literal (two's-complement truncated)."""
    return f"0x{value & MASK64:x}ULL"


def _array_u64(name: str, values: Sequence[int]) -> str:
    body = _wrap([_u64(value) for value in values])
    return (
        f"static const uint64_t {name}[{len(values)}] = {{\n{body}\n}};\n"
    )


def _array_i64(name: str, values: Sequence[int]) -> str:
    body = _wrap([f"{value}" for value in values])
    return (
        f"static const int64_t {name}[{len(values)}] = {{\n{body}\n}};\n"
    )


def _array_int_2d(name: str, rows: Sequence[Sequence[int]]) -> str:
    inner = ",\n".join(
        "    {" + ", ".join(str(v) for v in row) + "}" for row in rows
    )
    width = len(rows[0])
    return (
        f"static const int {name}[{len(rows)}][{width}] = {{\n{inner}\n}};\n"
    )


def _array_u64_2d(name: str, rows: Sequence[Sequence[int]]) -> str:
    inner = ",\n".join(
        "    {" + ", ".join(_u64(v) for v in row) + "}" for row in rows
    )
    width = len(rows[0])
    return (
        f"static const uint64_t {name}[{len(rows)}][{width}] ="
        f" {{\n{inner}\n}};\n"
    )


def _wrap(items: List[str], per_line: int = 8) -> str:
    lines = []
    for start in range(0, len(items), per_line):
        lines.append("    " + ", ".join(items[start : start + per_line]) + ",")
    return "\n".join(lines)


class _TablePool:
    """Content-deduplicating pool of baked ``uint64_t`` arrays.

    Stabilizer elements frequently share sub-tables (elements with the
    same input-bit renaming share their ``local_table``); emitting each
    distinct table once keeps the translation unit small.
    """

    def __init__(self) -> None:
        self._by_content: Dict[Tuple[int, ...], str] = {}
        self.chunks: List[str] = []

    def name_for(self, values: Sequence[int]) -> str:
        key = tuple(int(v) & MASK64 for v in values)
        found = self._by_content.get(key)
        if found is not None:
            return found
        name = f"RK_T{len(self._by_content)}"
        self._by_content[key] = name
        self.chunks.append(_array_u64(name, key))
        return name


def _emit_image_fn(
    index: int,
    table: Mapping[str, object],
    pool: _TablePool,
) -> str:
    """One stabilizer element -> ``static inline uint64_t rk_image_i``."""
    kind = str(table["kind"])
    lines = [f"static inline uint64_t rk_image_{index}(uint64_t s) {{"]
    if kind == "fused":
        register_table = pool.name_for(_as_ints(table["register_table"]))
        local_table = pool.name_for(_as_ints(table["local_table"]))
        block_mask = _u64(_as_int(table["block_mask"]))
        local_mask = _u64(_as_int(table["local_mask"]))
        terms = [f"{register_table}[s & {block_mask}]"]
        for dst, src in _as_pairs(table["moves"]):
            terms.append(
                f"({local_table}[(s >> {src}) & {local_mask}] << {dst})"
            )
        joined = "\n        | ".join(terms)
        lines.append(f"    return {joined};")
    elif kind == "general":
        record_map = pool.name_for(_as_ints(table["record_map"]))
        view_map = pool.name_for(_as_ints(table["view_map"]))
        reg_mask = _u64(_as_int(table["reg_mask"]))
        local_mask = _u64(_as_int(table["local_mask"]))
        k_mask = _u64(_as_int(table["k_mask"]))
        k_clear = _u64(_as_int(table["k_clear"]))
        lines.append("    uint64_t out = 0, loc;")
        for dst, src in _as_pairs(table["reg_moves"]):
            lines.append(
                f"    out |= {record_map}[(s >> {src}) & {reg_mask}]"
                f" << {dst};"
            )
        for dst, src in _as_pairs(table["moves"]):
            lines.append(f"    loc = (s >> {src}) & {local_mask};")
            lines.append(
                f"    out |= ((loc & {k_clear}) | {view_map}[loc & {k_mask}])"
                f" << {dst};"
            )
        lines.append("    return out;")
    else:  # pragma: no cover - the canonicalizer emits only these two
        raise ValueError(f"unknown element table kind: {kind!r}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _as_int(value: object) -> int:
    if not isinstance(value, int):
        raise TypeError(f"expected int table entry, got {type(value)!r}")
    return value


def _as_ints(value: object) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected int sequence, got {type(value)!r}")
    return tuple(_as_int(item) for item in value)


def _as_pairs(value: object) -> Tuple[Tuple[int, int], ...]:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected pair sequence, got {type(value)!r}")
    pairs: List[Tuple[int, int]] = []
    for item in value:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise TypeError(f"expected (dst, src) pair, got {item!r}")
        pairs.append((_as_int(item[0]), _as_int(item[1])))
    return tuple(pairs)


def generate_source(
    spec: "FastSnapshotSpec",
    element_tables: Sequence[Mapping[str, object]] = (),
) -> str:
    """The full C translation unit for ``spec``.

    ``element_tables`` is :attr:`FastCanonicalizer.element_tables` (the
    non-identity stabilizer elements); pass an empty sequence for
    symmetry-free kernels — ``rk_canonical`` then degenerates to the
    identity and ``rk_orbit_sizes`` to all-ones.
    """
    if spec.state_bits > 64:
        raise ValueError(
            f"native kernel requires states in one u64 word"
            f" (state_bits={spec.state_bits})"
        )
    wmask, popcount = export_footprint_tables(spec)
    n_elements = len(element_tables)

    out: List[str] = []
    emit = out.append
    emit(
        "/* Generated by repro.checker.native.generator"
        f" (v{GENERATOR_VERSION}); do not edit.\n"
        f" * machine: n={spec.n} m={spec.m} k={spec.k}"
        f" level_target={spec.level_target}"
        f" state_bits={spec.state_bits}"
        f" stabilizer_elements={n_elements}\n"
        f" * wiring: {spec.wiring!r}\n"
        " */\n"
        "#include <stdint.h>\n"
        "#include <stdlib.h>\n"
        "#include <string.h>\n"
    )

    defines: List[Tuple[str, str]] = [
        ("RK_N", str(spec.n)),
        ("RK_M", str(spec.m)),
        ("RK_K", str(spec.k)),
        ("RK_STATE_BITS", str(spec.state_bits)),
        ("RK_N_ELEMENTS", str(n_elements)),
        ("RK_LEVEL_TARGET", _u64(spec.level_target)),
        ("RK_ML_SENTINEL", _u64(spec.ml_sentinel)),
        ("RK_PHASE_WRITE", "0ULL"),
        ("RK_PHASE_SCAN", "1ULL"),
        ("RK_PHASE_DONE", "2ULL"),
        ("RK_O_LEVEL", str(spec.o_level)),
        ("RK_O_UNWRITTEN", str(spec.o_unwritten)),
        ("RK_O_PHASE", str(spec.o_phase)),
        ("RK_O_SCANPOS", str(spec.o_scanpos)),
        ("RK_O_ALLMATCH", str(spec.o_allmatch)),
        ("RK_O_MINLEVEL", str(spec.o_minlevel)),
        ("RK_K_MASK", _u64(spec.k_mask)),
        ("RK_LV_MASK", _u64(spec.lv_mask)),
        ("RK_ML_MASK", _u64(spec.ml_mask)),
        ("RK_SP_MASK", _u64(spec.sp_mask)),
        ("RK_M_MASK", _u64(spec.m_mask)),
        ("RK_REG_MASK", _u64(spec.reg_mask)),
        ("RK_LOCAL_MASK", _u64(spec.local_mask)),
        ("RK_LEVEL_FIELD", _u64(spec._level_field)),
        ("RK_UNWRITTEN_FIELD", _u64(spec._unwritten_field)),
        ("RK_RECORD_FIELD", _u64(spec._record_field)),
        ("RK_SCAN_RESET", _u64(spec._scan_reset)),
        ("RK_WRITE_RESET", _u64(spec._write_reset)),
        ("RK_DONE_RESET", _u64(spec._done_reset)),
        ("RK_SM_GAMMA", _u64(SPLITMIX_GAMMA)),
        ("RK_SM_MULT1", _u64(SPLITMIX_MULT1)),
        ("RK_SM_MULT2", _u64(SPLITMIX_MULT2)),
        ("RK_SM_SHIFT1", str(SPLITMIX_SHIFT1)),
        ("RK_SM_SHIFT2", str(SPLITMIX_SHIFT2)),
        ("RK_SM_SHIFT3", str(SPLITMIX_SHIFT3)),
    ]
    for name, value in defines:
        emit(f"#define {name} {value}")
    emit("")

    emit(_array_i64("RK_LOCAL_OFFSET", list(spec.local_offsets)))
    emit(_array_u64("RK_LOCAL_CLEAR", list(spec._local_clear)))
    emit(_array_u64("RK_INPUT_MASK", list(spec.input_masks)))
    emit(_array_int_2d("RK_PHYS_OFFSET", [list(row) for row in spec._phys_offset]))
    emit(_array_u64_2d("RK_WRITE_CLEAR", [list(row) for row in spec._write_clear]))
    emit(_array_u64_2d("RK_WMASK", [list(row) for row in wmask]))
    emit(_array_i64("RK_POPCOUNT", list(popcount)))

    pool = _TablePool()
    image_fns = [
        _emit_image_fn(index, table, pool)
        for index, table in enumerate(element_tables)
    ]
    out.extend(pool.chunks)
    out.extend(image_fns)

    emit(_SCAN_ONE)
    emit(_EXPAND)
    emit(_SCAN_STEP)
    emit(_FINGERPRINT)
    emit(_emit_canonical(n_elements))
    emit(_UNIQUE_FIRST)
    emit(_PROBE_SORTED)
    emit(_MERGE_SORTED)
    emit(_VIOLATIONS)
    emit(_POR_C0C1)
    emit(_STATE_BITS_FN)
    return "\n".join(out)


def _emit_canonical(n_elements: int) -> str:
    """``rk_canonical`` / ``rk_orbit_sizes`` over the baked images."""
    if n_elements == 0:
        return (
            "void rk_canonical(const uint64_t *in, int64_t n,"
            " uint64_t *out) {\n"
            "    for (int64_t i = 0; i < n; i++) out[i] = in[i];\n"
            "}\n\n"
            "void rk_orbit_sizes(const uint64_t *in, int64_t n,"
            " int64_t *out) {\n"
            "    (void)in;\n"
            "    for (int64_t i = 0; i < n; i++) out[i] = 1;\n"
            "}\n"
        )
    canon_body = "\n".join(
        f"        img = rk_image_{index}(s);"
        "\n        if (img < best) best = img;"
        for index in range(n_elements)
    )
    orbit_fill = "\n".join(
        f"        orbit[{index + 1}] = rk_image_{index}(s);"
        for index in range(n_elements)
    )
    return (
        "void rk_canonical(const uint64_t *in, int64_t n, uint64_t *out) {\n"
        "    for (int64_t i = 0; i < n; i++) {\n"
        "        uint64_t s = in[i];\n"
        "        uint64_t best = s, img;\n"
        f"{canon_body}\n"
        "        out[i] = best;\n"
        "    }\n"
        "}\n\n"
        "void rk_orbit_sizes(const uint64_t *in, int64_t n, int64_t *out) {\n"
        "    uint64_t orbit[RK_N_ELEMENTS + 1];\n"
        "    for (int64_t i = 0; i < n; i++) {\n"
        "        uint64_t s = in[i];\n"
        "        orbit[0] = s;\n"
        f"{orbit_fill}\n"
        "        int64_t distinct = 0;\n"
        "        for (int a = 0; a <= RK_N_ELEMENTS; a++) {\n"
        "            int dup = 0;\n"
        "            for (int b = 0; b < a; b++)\n"
        "                if (orbit[b] == orbit[a]) { dup = 1; break; }\n"
        "            if (!dup) distinct++;\n"
        "        }\n"
        "        out[i] = distinct;\n"
        "    }\n"
        "}\n"
    )


# ----------------------------------------------------------------------
# Fixed (layout-parameterized via the #defines) function bodies
# ----------------------------------------------------------------------

_SCAN_ONE = """\
static inline uint64_t rk_scan_one(uint64_t state, uint64_t local, int pid) {
    uint64_t view = local & RK_K_MASK;
    uint64_t scan_pos = (local >> RK_O_SCANPOS) & RK_SP_MASK;
    uint64_t all_match = (local >> RK_O_ALLMATCH) & 1u;
    uint64_t min_level = (local >> RK_O_MINLEVEL) & RK_ML_MASK;
    uint64_t record = (state >> RK_PHYS_OFFSET[pid][scan_pos]) & RK_REG_MASK;
    uint64_t read_view = record & RK_K_MASK;
    if (all_match && read_view == view) {
        uint64_t read_level = record >> RK_K;
        if (read_level < min_level) min_level = read_level;
    } else {
        all_match = 0;
        view |= read_view;
        min_level = RK_ML_SENTINEL;
    }
    uint64_t new_local;
    if (scan_pos + 1 < RK_M) {
        new_local = view
            | (local & RK_LEVEL_FIELD)
            | (local & RK_UNWRITTEN_FIELD)
            | (RK_PHASE_SCAN << RK_O_PHASE)
            | ((scan_pos + 1) << RK_O_SCANPOS)
            | (all_match << RK_O_ALLMATCH)
            | (min_level << RK_O_MINLEVEL);
    } else {
        uint64_t new_level = all_match ? min_level + 1 : 0;
        if (new_level >= RK_LEVEL_TARGET) {
            uint64_t clip = new_level < RK_LV_MASK ? new_level : RK_LV_MASK;
            new_local = view | (clip << RK_O_LEVEL) | RK_DONE_RESET;
        } else {
            new_local = view
                | (new_level << RK_O_LEVEL)
                | (local & RK_UNWRITTEN_FIELD)
                | RK_WRITE_RESET;
        }
    }
    return (state & RK_LOCAL_CLEAR[pid]) | (new_local << RK_LOCAL_OFFSET[pid]);
}
"""

_EXPAND = """\
int64_t rk_expand_level(const uint64_t *frontier, int64_t n_states,
                        const int64_t *selected, uint64_t *out_succ,
                        int64_t *out_counts) {
    uint64_t *out = out_succ;
    for (int64_t i = 0; i < n_states; i++) {
        uint64_t state = frontier[i];
        int64_t sel = selected ? selected[i] : -1;
        int64_t count = 0;
        if (sel >= -1) {
            for (int pid = 0; pid < RK_N; pid++) {
                if (sel >= 0 && sel != (int64_t)pid) continue;
                uint64_t local =
                    (state >> RK_LOCAL_OFFSET[pid]) & RK_LOCAL_MASK;
                uint64_t phase = (local >> RK_O_PHASE) & 3u;
                if (phase == RK_PHASE_DONE) continue;
                if (phase == RK_PHASE_WRITE) {
                    uint64_t record = local & RK_RECORD_FIELD;
                    uint64_t unwritten =
                        (local >> RK_O_UNWRITTEN) & RK_M_MASK;
                    for (int reg = 0; reg < RK_M; reg++) {
                        if (!((unwritten >> reg) & 1u)) continue;
                        uint64_t remaining = unwritten & ~(1ULL << reg);
                        if (remaining == 0) remaining = RK_M_MASK;
                        uint64_t new_local = record
                            | (remaining << RK_O_UNWRITTEN) | RK_SCAN_RESET;
                        out[count++] = (state & RK_WRITE_CLEAR[pid][reg])
                            | (record << RK_PHYS_OFFSET[pid][reg])
                            | (new_local << RK_LOCAL_OFFSET[pid]);
                    }
                } else {
                    out[count++] = rk_scan_one(state, local, pid);
                }
            }
        }
        out_counts[i] = count;
        out += count;
    }
    return (int64_t)(out - out_succ);
}
"""

_SCAN_STEP = """\
void rk_scan_step(const uint64_t *states, const uint64_t *locs, int64_t n,
                  int64_t pid, uint64_t *out) {
    for (int64_t i = 0; i < n; i++)
        out[i] = rk_scan_one(states[i], locs[i], (int)pid);
}
"""

_FINGERPRINT = """\
static inline uint64_t rk_splitmix64(uint64_t v) {
    v = (v ^ (v >> RK_SM_SHIFT1)) * RK_SM_MULT1;
    v = (v ^ (v >> RK_SM_SHIFT2)) * RK_SM_MULT2;
    return v ^ (v >> RK_SM_SHIFT3);
}

void rk_fingerprint(const uint64_t *in, int64_t n, uint64_t *out) {
    for (int64_t i = 0; i < n; i++)
        out[i] = rk_splitmix64(in[i] ^ RK_SM_GAMMA);
}
"""

_UNIQUE_FIRST = """\
int64_t rk_unique_first(const uint64_t *keys, int64_t n, uint64_t *out_keys,
                        int64_t *out_first) {
    if (n <= 0) return 0;
    int64_t i = 1;
    while (i < n && keys[i] >= keys[i - 1]) i++;
    if (i == n) {
        /* Sorted input (spill merges hand levels back in key order):
         * run starts are already the minimal original positions, so
         * dedup is a single linear pass. */
        int64_t u = 0;
        for (int64_t j = 0; j < n; j++) {
            if (j == 0 || keys[j] != keys[j - 1]) {
                out_keys[u] = keys[j];
                out_first[u] = j;
                u++;
            }
        }
        return u;
    }
    if ((uint64_t)n > 0xffffffffULL) return -1; /* positions are u32 */
    /* Recent-repeat filter: a direct-mapped table of the last key seen
     * per slot, sized to the level (small POR and shard calls do not
     * pay for the full table).  Every slot starts as keys[0], which
     * position 0 already carries, so no key value is reserved.  A key
     * equal to its slot's content repeats an earlier position and is
     * dropped; a key's first occurrence always survives.  Survivors
     * keep ascending positions. */
    int bits = 6;
    while (bits < 14 && ((int64_t)1 << bits) < n) bits++;
    size_t slots = (size_t)1 << bits;
    uint64_t *table = (uint64_t *)malloc(slots * sizeof(uint64_t));
    uint64_t *ka = (uint64_t *)malloc((size_t)n * sizeof(uint64_t));
    uint32_t *pa = (uint32_t *)malloc((size_t)n * sizeof(uint32_t));
    if (!table || !ka || !pa) {
        free(table); free(ka); free(pa);
        return -1;
    }
    uint64_t first = keys[0], any_bits = keys[0];
    for (size_t s = 0; s < slots; s++) table[s] = first;
    int hash_shift = 64 - bits; /* Fibonacci hashing, golden gamma */
    ka[0] = first;
    pa[0] = 0;
    int64_t m = 1;
    for (i = 1; i < n; i++) {
        uint64_t k = keys[i];
        uint64_t *slot = &table[(k * RK_SM_GAMMA) >> hash_shift];
        ka[m] = k;
        pa[m] = (uint32_t)i;
        m += *slot != k;
        *slot = k;
        any_bits |= k;
    }
    free(table);
    /* Stable LSD radix sort of the survivors on (key, position):
     * stability keeps each equal-key run's first entry at its minimal
     * position.  11-bit digits, the pass count trimmed by the widest
     * key, digits the whole level agrees on skipped, and every
     * histogram built in one scan. */
    int passes = 1;
    while (passes < 6 && (any_bits >> (11 * passes)) != 0) passes++;
    uint64_t *kb = (uint64_t *)malloc((size_t)m * sizeof(uint64_t));
    uint32_t *pb = (uint32_t *)malloc((size_t)m * sizeof(uint32_t));
    uint32_t *hist = (uint32_t *)calloc((size_t)passes * 2048,
                                        sizeof(uint32_t));
    if (!kb || !pb || !hist) {
        free(ka); free(pa); free(kb); free(pb); free(hist);
        return -1;
    }
    for (int64_t j = 0; j < m; j++) {
        uint64_t v = ka[j];
        for (int p = 0; p < passes; p++)
            hist[p * 2048 + ((v >> (11 * p)) & 0x7ff)]++;
    }
    for (int p = 0; p < passes; p++) {
        int shift = 11 * p;
        uint32_t *count = hist + p * 2048;
        if (count[(ka[0] >> shift) & 0x7ff] == (uint32_t)m)
            continue; /* constant digit */
        uint32_t offset = 0;
        for (int b = 0; b < 2048; b++) {
            uint32_t c = count[b];
            count[b] = offset;
            offset += c;
        }
        for (int64_t j = 0; j < m; j++) {
            uint32_t dst = count[(ka[j] >> shift) & 0x7ff]++;
            kb[dst] = ka[j];
            pb[dst] = pa[j];
        }
        uint64_t *tk = ka; ka = kb; kb = tk;
        uint32_t *tp = pa; pa = pb; pb = tp;
    }
    int64_t u = 0;
    for (int64_t j = 0; j < m; j++) {
        if (j == 0 || ka[j] != ka[j - 1]) {
            out_keys[u] = ka[j];
            out_first[u] = pa[j];
            u++;
        }
    }
    free(ka); free(pa); free(kb); free(pb); free(hist);
    return u;
}
"""

_PROBE_SORTED = """\
void rk_probe_sorted(const uint64_t *haystack, int64_t h_n,
                     const uint64_t *values, int64_t n,
                     unsigned char *out_present, int64_t *out_at) {
    /* Both sides ascending, so one merge walk replaces per-value
     * binary search: out_at[i] is searchsorted-left(haystack,
     * values[i]) and the cursor never moves backwards. */
    int64_t j = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t v = values[i];
        while (j < h_n && haystack[j] < v) j++;
        out_at[i] = j;
        out_present[i] = (unsigned char)(j < h_n && haystack[j] == v);
    }
}
"""

_MERGE_SORTED = """\
int64_t rk_merge_sorted(const uint64_t *sorted, int64_t n, const int64_t *at,
                        const uint64_t *fresh, int64_t n_fresh,
                        uint64_t *out) {
    /* np.insert(sorted, at, fresh) for ascending at: each fresh key
     * follows the block of set keys below its insertion position.
     * Positions that go backwards or past the end are refused (-1). */
    int64_t src = 0;
    uint64_t *dst = out;
    for (int64_t i = 0; i < n_fresh; i++) {
        if (at[i] < src || at[i] > n) return -1;
        int64_t block = at[i] - src;
        if (block > 0) {
            memcpy(dst, sorted + src, (size_t)block * sizeof(uint64_t));
            dst += block;
            src = at[i];
        }
        *dst++ = fresh[i];
    }
    if (n > src)
        memcpy(dst, sorted + src, (size_t)(n - src) * sizeof(uint64_t));
    return 0;
}
"""

_VIOLATIONS = """\
void rk_violations(const uint64_t *states, int64_t n, unsigned char *out) {
    for (int64_t i = 0; i < n; i++) {
        uint64_t state = states[i];
        uint64_t views[RK_N];
        int done[RK_N];
        int bad = 0;
        for (int pid = 0; pid < RK_N; pid++) {
            uint64_t local = (state >> RK_LOCAL_OFFSET[pid]) & RK_LOCAL_MASK;
            done[pid] = ((local >> RK_O_PHASE) & 3u) == RK_PHASE_DONE;
            views[pid] = local & RK_K_MASK;
            if (done[pid] && (views[pid] & RK_INPUT_MASK[pid]) == 0) bad = 1;
        }
        for (int a = 0; a < RK_N && !bad; a++) {
            if (!done[a]) continue;
            for (int b = a + 1; b < RK_N; b++) {
                if (!done[b]) continue;
                uint64_t meet = views[a] & views[b];
                if (meet != views[a] && meet != views[b]) { bad = 1; break; }
            }
        }
        out[i] = (unsigned char)bad;
    }
}
"""

_POR_C0C1 = """\
void rk_por_c0c1(const uint64_t *frontier, int64_t n_states,
                 unsigned char *out_qualified, int64_t *out_nsucc,
                 unsigned char *out_is_scan, int64_t *out_total) {
    for (int64_t i = 0; i < n_states; i++) {
        uint64_t state = frontier[i];
        uint64_t w[RK_N], r[RK_N];
        int64_t cnt[RK_N];
        int active = 0;
        int64_t total = 0;
        for (int pid = 0; pid < RK_N; pid++) {
            uint64_t local = (state >> RK_LOCAL_OFFSET[pid]) & RK_LOCAL_MASK;
            uint64_t phase = (local >> RK_O_PHASE) & 3u;
            int writing = phase == RK_PHASE_WRITE;
            int scanning = phase == RK_PHASE_SCAN;
            uint64_t unwritten = (local >> RK_O_UNWRITTEN) & RK_M_MASK;
            w[pid] = writing ? RK_WMASK[pid][unwritten] : 0;
            r[pid] = scanning ? RK_M_MASK : 0;
            cnt[pid] = (writing ? RK_POPCOUNT[unwritten] : 0)
                + (scanning ? 1 : 0);
            out_nsucc[(int64_t)pid * n_states + i] = cnt[pid];
            out_is_scan[(int64_t)pid * n_states + i] =
                (unsigned char)scanning;
            if (writing || scanning) active++;
            total += cnt[pid];
        }
        out_total[i] = total;
        int eligible = active >= 2;
        for (int pid = 0; pid < RK_N; pid++) {
            int conflict = 0;
            for (int other = 0; other < RK_N; other++) {
                if (other == pid) continue;
                uint64_t clash = (w[pid] & (w[other] | r[other]))
                    | (r[pid] & w[other]);
                if (clash != 0) { conflict = 1; break; }
            }
            out_qualified[(int64_t)pid * n_states + i] =
                (unsigned char)(cnt[pid] > 0 && eligible && !conflict);
        }
    }
}
"""

_STATE_BITS_FN = """\
int64_t rk_state_bits(void) {
    return RK_STATE_BITS;
}
"""


#: Digest of the fixed function bodies, part of every cache index key:
#: editing a body re-keys the index even without a version bump.
_BODIES_DIGEST = hashlib.sha256(
    "".join((
        _SCAN_ONE, _EXPAND, _SCAN_STEP, _FINGERPRINT, _UNIQUE_FIRST,
        _PROBE_SORTED, _MERGE_SORTED, _VIOLATIONS, _POR_C0C1,
        _STATE_BITS_FN,
    )).encode()
).hexdigest()


def spec_cache_key(
    spec: "FastSnapshotSpec",
    element_tables: Sequence[Mapping[str, object]] = (),
) -> str:
    """Disk-cache index key for ``spec`` without generating the source.

    :func:`generate_source` is a deterministic pure function of the
    machine parameters, the stabilizer element tables, and the module
    constants (the fixed function bodies by their digest, the rest
    versioned by :data:`GENERATOR_VERSION`), so hashing
    those inputs identifies the emitted translation unit without
    re-emitting megabytes of C per process.  The build cache uses this
    as a fast index in front of the source-hash key (see
    :func:`repro.checker.native.build.cached_library_for`); a stale or
    missing index entry merely falls back to the slow path, so the key
    never needs to be *collision-proof* against adversaries — sha256
    over the full parameter tuple is far beyond sufficient.
    """
    digest = hashlib.sha256()
    digest.update(
        repr(
            (
                GENERATOR_VERSION,
                _BODIES_DIGEST,
                spec.n,
                spec.m,
                spec.k,
                spec.state_bits,
                spec.level_target,
                spec.inputs,
                spec.wiring,
            )
        ).encode()
    )
    for table in element_tables:
        for name in sorted(table):
            value = table[name]
            digest.update(b"\x00")
            digest.update(name.encode())
            digest.update(b"\x01")
            if isinstance(value, list):
                # int tables are by far the bulk of the payload; pack
                # them at C speed and let anything else (negative or
                # non-int entries) drop to repr
                try:
                    digest.update(array("Q", value).tobytes())
                    continue
                except (TypeError, OverflowError):
                    pass
            digest.update(repr(value).encode())
    return digest.hexdigest()[:32]
