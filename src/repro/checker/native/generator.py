"""Emit a C translation unit specialized to one packed snapshot machine.

The generated source is the native twin of :mod:`repro.checker.batch`:
successor expansion, the scan micro-step, splitmix64 fingerprinting,
orbit-min canonicalization, sorted in-level dedup, the visited set (a
hash set of exact keys that admits a whole slice in one pass), the
vectorized output check, and the C0/C1 bitmask phase of the POR ample
selector.  Every
machine-dependent quantity — field offsets, masks, reset templates,
wiring shifts, footprint tables, the stabilizer's field maps — is
burned into the source as a ``#define`` or a constant array, so the
compiler sees loop bounds and shift distances as literals (the
TLC/`pan` specialize-then-compile move).  The fused symmetry tables
are not baked: the kernel fills them from the field maps on first use,
which keeps a source to a few tens of kilobytes.

The module is deliberately free of numpy and of any build machinery:
it is a pure ``spec -> str`` function, which keeps it cheap to test
and lets the disk cache key on nothing but the emitted text (see
:mod:`repro.checker.native.build`).
"""

from __future__ import annotations

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
from repro.checker.symmetry import fused_tables_fit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.checker.fast_snapshot import FastSnapshotSpec

#: Bump when the emitted code changes shape without a table change, so
#: stale cached objects are never dlopened against new wrappers.
GENERATOR_VERSION = 8

#: Overflow slots after the last home slot of the visited set's table:
#: its linear probing never wraps around.
VISITED_PAD = 64

#: log2 of the home slots of the smallest visited table.
VISITED_MIN_BITS = 4


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
    """Content-deduplicating pool of baked ``uint64_t`` field maps.

    Elements with the same input-bit renaming share their view and
    record maps; emitting each distinct map once keeps the translation
    unit small.
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


def _emit_symmetry(
    spec: "FastSnapshotSpec", field_maps: Sequence[Mapping[str, object]]
) -> Tuple[str, bool]:
    """The image function ``rk_image_i`` of each non-identity element,
    and whether they read fused tables that ``rk_fill_tables`` fills.

    Only the field maps are baked.  Within the ``2^16``-entry bound of
    :func:`~repro.checker.symmetry.fused_tables_fit` each element gets a
    register-file table and shares a local table with the elements of
    the same view map, as :meth:`FastCanonicalizer.fuse` builds them;
    they are zeroed statics, filled from the field maps by the first
    ``rk_canonical``/``rk_orbit_sizes`` call, so a process that never
    canonicalizes never touches their pages.  Past the bound each image
    is computed field by field.
    """
    fused = bool(field_maps) and fused_tables_fit(spec)
    pool = _TablePool()
    statics: List[str] = []
    register_fills: List[str] = []
    local_fills: List[str] = []
    local_tables: Dict[str, str] = {}
    images: List[str] = []
    for index, maps in enumerate(field_maps):
        record_map = pool.name_for(_as_ints(maps["record_map"]))
        view_map = pool.name_for(_as_ints(maps["view_map"]))
        reg_moves = _as_pairs(maps["reg_moves"])
        moves = _as_pairs(maps["moves"])
        lines = [f"static inline uint64_t rk_image_{index}(uint64_t s) {{"]
        if fused:
            registers = f"rk_rt{index}"
            statics.append(f"static uint64_t {registers}[RK_BLOCK_MASK + 1];")
            register_fills.append(
                f"        {registers}[i] = "
                + "\n            | ".join(
                    f"({record_map}[(i >> {src}) & RK_REG_MASK] << {dst})"
                    for dst, src in reg_moves
                )
                + ";"
            )
            local_table = local_tables.get(view_map)
            if local_table is None:
                local_table = local_tables[view_map] = (
                    f"rk_lt{len(local_tables)}"
                )
                statics.append(
                    f"static uint64_t {local_table}[RK_LOCAL_MASK + 1];"
                )
                local_fills.append(
                    f"        {local_table}[i] = (i & ~RK_K_MASK)"
                    f" | {view_map}[i & RK_K_MASK];"
                )
            terms = [f"{registers}[s & RK_BLOCK_MASK]"] + [
                f"({local_table}[(s >> {src}) & RK_LOCAL_MASK] << {dst})"
                for dst, src in moves
            ]
            lines.append("    return " + "\n        | ".join(terms) + ";")
        else:
            lines.append("    uint64_t out = 0, loc;")
            for dst, src in reg_moves:
                lines.append(
                    f"    out |= {record_map}[(s >> {src}) & RK_REG_MASK]"
                    f" << {dst};"
                )
            for dst, src in moves:
                lines.append(f"    loc = (s >> {src}) & RK_LOCAL_MASK;")
                lines.append(
                    f"    out |= ((loc & ~RK_K_MASK) | {view_map}[loc & RK_K_MASK])"
                    f" << {dst};"
                )
            lines.append("    return out;")
        lines.append("}")
        images.append("\n".join(lines) + "\n")
    out = list(pool.chunks)
    if fused:
        block_mask = (1 << (spec.m * spec.reg_bits)) - 1
        out.append(f"#define RK_BLOCK_MASK {_u64(block_mask)}")
        out.extend(statics)
        out.append(
            "static int rk_tables_filled;\n\n"
            "static void rk_fill_tables(void) {\n"
            "    for (uint64_t i = 0; i <= RK_BLOCK_MASK; i++) {\n"
            + "\n".join(register_fills)
            + "\n    }\n"
            "    for (uint64_t i = 0; i <= RK_LOCAL_MASK; i++) {\n"
            + "\n".join(local_fills)
            + "\n    }\n"
            "    rk_tables_filled = 1;\n"
            "}\n"
        )
    out.extend(images)
    return "\n".join(out), fused


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
    field_maps: Sequence[Mapping[str, object]] = (),
) -> str:
    """The full C translation unit for ``spec``.

    ``field_maps`` is :attr:`FastCanonicalizer.field_maps` (the
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
    n_elements = len(field_maps)

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
        ("RK_VIS_PAD", str(VISITED_PAD)),
        ("RK_VIS_MIN_BITS", str(VISITED_MIN_BITS)),
        ("RK_VIS_AHEAD", "16"),
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

    symmetry, fill = _emit_symmetry(spec, field_maps)
    emit(symmetry)

    emit(_SCAN_ONE)
    emit(_EXPAND)
    emit(_SCAN_STEP)
    emit(_FINGERPRINT)
    emit(_emit_canonical(n_elements, fill))
    emit(_UNIQUE_FIRST)
    emit(_VISITED)
    emit(_VIOLATIONS)
    emit(_POR_C0C1)
    emit(_STATE_BITS_FN)
    return "\n".join(out)


def _emit_canonical(n_elements: int, fill: bool) -> str:
    """``rk_canonical`` / ``rk_orbit_sizes`` over the image functions;
    with ``fill``, each first fills the fused tables if no call has."""
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
    ready = "    if (!rk_tables_filled) rk_fill_tables();\n" if fill else ""
    return (
        "void rk_canonical(const uint64_t *in, int64_t n, uint64_t *out) {\n"
        f"{ready}"
        "    for (int64_t i = 0; i < n; i++) {\n"
        "        uint64_t s = in[i];\n"
        "        uint64_t best = s, img;\n"
        f"{canon_body}\n"
        "        out[i] = best;\n"
        "    }\n"
        "}\n\n"
        "void rk_orbit_sizes(const uint64_t *in, int64_t n, int64_t *out) {\n"
        f"{ready}"
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

_VISITED = """\
/* The visited set: open addressing over exact u64 keys.  A key's home
 * is the top `bits` bits of its splitmix64 mix; probing is linear and
 * never wraps, because RK_VIS_PAD overflow slots follow the last home.
 * 0 marks an empty slot, so key 0 is held as a flag.  The load stays at
 * most 3/4: a fresh key past that, or one whose probe runs off the pad,
 * first doubles the table in place (rk_vis_grow).  Calls stream their
 * keys in order and prefetch the home slot RK_VIS_AHEAD keys ahead. */
typedef struct {
    uint64_t *slots; /* (1 << bits) + RK_VIS_PAD slots */
    int64_t count;   /* nonzero keys held */
    int64_t grow_at; /* 3/4 of the home slots */
    int bits;
    int has_zero;
} rk_visited;

static void rk_vis_size(rk_visited *v, int bits) {
    v->bits = bits;
    v->grow_at = (int64_t)((3ULL << bits) >> 2);
}

static inline int64_t rk_vis_end(const rk_visited *v) {
    return ((int64_t)1 << v->bits) + RK_VIS_PAD;
}

/* Where the probe for nonzero `k` from home `s` stops: k's slot, the
 * empty slot k would take, or `end` when it runs off the pad. */
static inline int64_t rk_vis_find(const uint64_t *slots, int64_t end,
                                  uint64_t k, int64_t s) {
    while (s < end && slots[s] != 0 && slots[s] != k) s++;
    return s;
}

/* The mixes of the next RK_VIS_AHEAD keys ride in `ring`: returns the
 * mix of keys[i] and prefetches the home of keys[i + RK_VIS_AHEAD]. */
static inline uint64_t rk_vis_next(uint64_t *ring, const uint64_t *keys,
                                   int64_t i, int64_t n,
                                   const uint64_t *slots, int shift) {
    uint64_t mix = ring[i & (RK_VIS_AHEAD - 1)];
    if (i + RK_VIS_AHEAD < n) {
        uint64_t ahead = rk_splitmix64(keys[i + RK_VIS_AHEAD]);
        ring[i & (RK_VIS_AHEAD - 1)] = ahead;
        __builtin_prefetch(slots + (ahead >> shift));
    }
    return mix;
}

static void rk_vis_warm(uint64_t *ring, const uint64_t *keys, int64_t n,
                        const uint64_t *slots, int shift) {
    for (int64_t i = 0; i < n && i < RK_VIS_AHEAD; i++) {
        ring[i] = rk_splitmix64(keys[i]);
        __builtin_prefetch(slots + (ring[i] >> shift));
    }
}

static int rk_vis_grow(rk_visited *v);

/* Store absent nonzero `k` (mix `mix`), doubling while its probe runs
 * off the pad.  0, or -1 when memory runs out. */
static int rk_vis_place(rk_visited *v, uint64_t k, uint64_t mix) {
    for (;;) {
        int64_t end = rk_vis_end(v);
        int64_t s = rk_vis_find(v->slots, end, k, (int64_t)(mix >> (64 - v->bits)));
        if (s < end) {
            v->slots[s] = k;
            return 0;
        }
        if (rk_vis_grow(v) < 0) return -1;
    }
}

/* Double the table without a second copy: realloc to 2x plus the pad,
 * then sweep the old slots from high to low.  A key's new home is 2h or
 * 2h+1 for its old home h <= its slot j, and every slot above j is
 * already swept, so a key whose new home is at or above j is placed
 * directly.  The few whose home lies below j (near the start of the
 * table) or whose probe runs off the new pad are stashed and placed
 * after the sweep.  -1 when memory runs out, leaving the set unusable. */
static int rk_vis_grow(rk_visited *v) {
    int64_t old_end = rk_vis_end(v);
    if (v->bits >= 62) return -1;
    int bits = v->bits + 1;
    int64_t end = ((int64_t)1 << bits) + RK_VIS_PAD;
    uint64_t *slots = (uint64_t *)realloc(v->slots,
                                          (size_t)end * sizeof(uint64_t));
    if (!slots) return -1;
    memset(slots + old_end, 0, (size_t)(end - old_end) * sizeof(uint64_t));
    v->slots = slots;
    rk_vis_size(v, bits);
    int shift = 64 - bits;
    uint64_t *stash = NULL;
    int64_t stashed = 0, room = 0;
    for (int64_t j = old_end - 1; j >= 0; j--) {
        uint64_t k = slots[j];
        if (k == 0) continue;
        slots[j] = 0;
        int64_t s = (int64_t)(rk_splitmix64(k) >> shift);
        if (s >= j) {
            s = rk_vis_find(slots, end, k, s);
            if (s < end) {
                slots[s] = k;
                continue;
            }
        }
        if (stashed == room) {
            room = room ? 2 * room : 64;
            uint64_t *more = (uint64_t *)realloc(
                stash, (size_t)room * sizeof(uint64_t));
            if (!more) {
                free(stash);
                return -1;
            }
            stash = more;
        }
        stash[stashed++] = k;
    }
    int status = 0;
    for (int64_t i = 0; i < stashed && status == 0; i++)
        status = rk_vis_place(v, stash[i], rk_splitmix64(stash[i]));
    free(stash);
    return status;
}

/* A set sized so that `expected` keys fit without growing. */
void *rk_visited_new(int64_t expected) {
    int bits = RK_VIS_MIN_BITS;
    while (bits < 62 && (int64_t)((3ULL << bits) >> 2) < expected) bits++;
    rk_visited *v = (rk_visited *)calloc(1, sizeof(rk_visited));
    if (!v) return NULL;
    v->slots = (uint64_t *)calloc(((size_t)1 << bits) + RK_VIS_PAD,
                                  sizeof(uint64_t));
    if (!v->slots) {
        free(v);
        return NULL;
    }
    rk_vis_size(v, bits);
    return v;
}

void rk_visited_free(void *handle) {
    rk_visited *v = (rk_visited *)handle;
    if (v) free(v->slots);
    free(v);
}

int64_t rk_visited_slots(void *handle) {
    return (int64_t)1 << ((rk_visited *)handle)->bits;
}

/* Admit keys in order: every key not yet in the set is fresh and is
 * inserted, and its position written to out_pos, until `limit` keys
 * were admitted.  The next fresh key is not inserted: its position goes
 * to *out_trip (-1 when there is none) and the call stops.  Returns the
 * number admitted, or -1 when memory runs out. */
int64_t rk_visited_admit(void *handle, const uint64_t *keys, int64_t n,
                         int64_t limit, int64_t *out_pos,
                         int64_t *out_trip) {
    rk_visited *v = (rk_visited *)handle;
    uint64_t *slots = v->slots;
    int64_t end = rk_vis_end(v);
    int shift = 64 - v->bits;
    uint64_t ring[RK_VIS_AHEAD];
    int64_t admitted = 0;
    *out_trip = -1;
    rk_vis_warm(ring, keys, n, slots, shift);
    for (int64_t i = 0; i < n; i++) {
        uint64_t k = keys[i];
        uint64_t mix = rk_vis_next(ring, keys, i, n, slots, shift);
        int64_t s = 0;
        if (k == 0) {
            if (v->has_zero) continue;
        } else {
            s = rk_vis_find(slots, end, k, (int64_t)(mix >> shift));
            if (s < end && slots[s] == k) continue;
        }
        if (admitted == limit) {
            *out_trip = i;
            break;
        }
        if (k == 0) {
            v->has_zero = 1;
        } else if (s < end && v->count < v->grow_at) {
            slots[s] = k;
            v->count++;
        } else {
            if (v->count >= v->grow_at && rk_vis_grow(v) < 0) return -1;
            if (rk_vis_place(v, k, mix) < 0) return -1;
            v->count++;
            slots = v->slots;
            end = rk_vis_end(v);
            shift = 64 - v->bits;
        }
        out_pos[admitted++] = i;
    }
    return admitted;
}

void rk_visited_contains(void *handle, const uint64_t *keys, int64_t n,
                         unsigned char *out) {
    const rk_visited *v = (const rk_visited *)handle;
    const uint64_t *slots = v->slots;
    int64_t end = rk_vis_end(v);
    int shift = 64 - v->bits;
    uint64_t ring[RK_VIS_AHEAD];
    rk_vis_warm(ring, keys, n, slots, shift);
    for (int64_t i = 0; i < n; i++) {
        uint64_t k = keys[i];
        uint64_t mix = rk_vis_next(ring, keys, i, n, slots, shift);
        if (k == 0) {
            out[i] = (unsigned char)v->has_zero;
            continue;
        }
        int64_t s = rk_vis_find(slots, end, k, (int64_t)(mix >> shift));
        out[i] = (unsigned char)(s < end && slots[s] == k);
    }
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
