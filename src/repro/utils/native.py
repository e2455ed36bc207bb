"""On-demand compiled native kernels (optional accelerators).

The metadata cache drives are sequential LRU state machines (the VN
integrity-tree walk depends on what the drive has cached so far), which
Python can only run one access at a time.  The DRAM model's per-layer
counter is one issue-order walk with an open-row register per bank,
which numpy can only express as a merge sort plus a bank sort; the
walk reads a block stream's packed key column (``dram_keys``), which
every scheme walking the stream shares.
Likewise a layer's cycle-sorted block stream is a k-way merge of its
ranges' ascending runs, which numpy can only express as a full
expansion plus a sort.  When a C compiler is available
this module builds ``_native_kernels.c`` and the hot paths run those
loops in native code instead.

Everything degrades gracefully: no compiler (or
``REPRO_NO_NATIVE_KERNEL=1``) means :func:`available` is False and the
callers use the pure Python/numpy twins.  All tiers are pinned
bit-identical by the equivalence suites in
``tests/protection/test_drive_tiers.py``, ``tests/dram`` and
``tests/utils/test_native_parity.py``; the
``FALLBACKS`` manifest below records which slow tier owns each kernel,
and ``repro check``'s tier-parity rule fails the build if an entry
point ships without one.

Environment knobs (speed-only — every tier is pinned bit-identical, so
none of these can change a result): ``REPRO_NO_NATIVE_KERNEL`` disables
the kernels, ``REPRO_KERNEL_CACHE`` moves the build cache, ``CC`` picks
the compiler, and ``REPRO_NATIVE_CFLAGS`` appends extra compiler flags
(how CI builds the kernels under ``-fsanitize=address,undefined``; the
flags are folded into the cache key, so instrumented and plain builds
never collide).
"""
# repro: allow-file(fingerprint-purity) -- env reads here select a
# compute tier; the equivalence suites pin all tiers bit-identical.

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import warnings
from typing import Optional, Sequence, Tuple

import numpy as np

from repro import faults, obs

_SOURCE = os.path.join(os.path.dirname(__file__), "_native_kernels.c")

#: Pure-Python/numpy tiers owning correctness for each kernel entry
#: point, as ``"pkg.module:Qual.name"`` paths.  The tier-parity rule in
#: ``repro check`` verifies every entry point is registered here, every
#: path resolves, and an equivalence test in tests/ names the kernel.
FALLBACKS = {
    "fused_drive": [
        "repro.protection.metadata_model:drive_scalar",
    ],
    "dram_walk": [
        "repro.dram.simulator:DramSim._walk_numpy",
    ],
    "dram_keys": [
        "repro.dram.mapping:AddressMapping.keys",
    ],
    "expand_cursor": [
        "repro.accel.trace:ExpandCursor._take_numpy",
    ],
    "expand_merge": [
        "repro.accel.trace:ExpandCursor._take_numpy",
    ],
}

_lib = None
_load_attempted = False

#: Every pointer argument is declared ``c_void_p`` and passed as a raw
#: data address (:func:`address`): one ``data_as`` pointer object per
#: argument cost more than many of the kernel calls themselves.
_ptr = ctypes.c_void_p
_i64 = ctypes.c_int64


def _cache_dir() -> Optional[str]:
    """Private, ownership-verified directory for compiled kernels.

    The ``.so`` here gets ``ctypes.CDLL``-loaded, so the directory must
    not be writable by other users: it is created mode 0700 and both
    ownership and permissions are re-verified (a pre-planted
    world-writable directory in a shared tmp must not be trusted).
    Returns ``None`` when no trustworthy location exists — the callers
    then fall back to the pure Python tiers.
    """
    root = os.environ.get("REPRO_KERNEL_CACHE")
    if not root:
        base = os.environ.get("XDG_CACHE_HOME",
                              os.path.join(os.path.expanduser("~"), ".cache"))
        root = os.path.join(base, "repro-kernel")
        if not os.path.isdir(os.path.dirname(root)):
            uid = os.getuid() if hasattr(os, "getuid") else "u"
            root = os.path.join(tempfile.gettempdir(), f"repro-kernel-{uid}")
    try:
        os.makedirs(root, mode=0o700, exist_ok=True)
        if hasattr(os, "getuid"):
            info = os.stat(root)
            if info.st_uid != os.getuid() or info.st_mode & 0o022:
                return None
    except OSError:
        return None
    return root


def _build() -> Optional[str]:
    compiler = None
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            compiler = cand
            break
    if compiler is None:
        return None
    flags = ["-O3", "-march=native", "-shared", "-fPIC"]
    extra = os.environ.get("REPRO_NATIVE_CFLAGS")
    if extra:
        # e.g. "-fsanitize=address,undefined -fno-omit-frame-pointer".
        # The flags are hashed into the cache key below, so instrumented
        # builds never shadow (or get shadowed by) plain ones.
        flags.extend(extra.split())
    # -march=native binaries are host-specific: fold the CPU identity
    # into the cache key so a shared cache dir (or an image baked on a
    # different microarchitecture) never loads an ISA-incompatible .so.
    cpu = f"{platform.machine()}|{platform.processor()}"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith(("model name", "flags")):
                    cpu += line
    except OSError:
        pass
    with open(_SOURCE, "rb") as handle:
        digest = hashlib.sha256(handle.read() + " ".join(flags).encode()
                                + cpu.encode()).hexdigest()[:16]
    cache_dir = _cache_dir()
    if cache_dir is None:
        return None
    suffix = "dylib" if sys.platform == "darwin" else "so"
    target = os.path.join(cache_dir, f"_native_kernels-{digest}.{suffix}")
    if os.path.exists(target):
        return target
    fd, tmp = tempfile.mkstemp(suffix=f".{suffix}", dir=cache_dir)
    os.close(fd)
    cmd = [compiler, *flags, _SOURCE, "-o", tmp]
    try:
        subprocess.run(cmd, check=True, capture_output=True, timeout=120)
        os.replace(tmp, target)      # atomic: concurrent builders collapse
    except Exception:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return None
    return target


def _degrade(reason: str) -> None:
    """Make an unintentional native-tier loss visible, exactly once.

    The numpy tier owns correctness (all tiers are pinned
    bit-identical), so losing the kernels is a speed problem, not a
    correctness one — but a silent 5-10x slowdown is how perf
    regressions hide.  One warning plus a counter; the process then
    stays on the numpy tier permanently (``_load_attempted`` latches).
    """
    obs.incr("native.degraded")
    warnings.warn(
        f"native kernels unavailable ({reason}); falling back to the "
        f"bit-identical numpy tier for this process (slower; see the "
        f"native.degraded counter)", RuntimeWarning, stacklevel=3)


def _load():
    global _lib, _load_attempted
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get("REPRO_NO_NATIVE_KERNEL"):
        # Deliberate opt-out: silent by design (CI and the equivalence
        # suites flip this constantly).
        return None
    try:
        if faults.should_fail("native.build"):
            raise RuntimeError("injected native-kernel build failure")
        path = _build()
        if path is None:
            _degrade("no usable C compiler or kernel cache directory")
            return None
        if faults.should_fail("native.load"):
            raise OSError("injected native-kernel load failure")
        lib = ctypes.CDLL(path)
        lib.dram_walk.restype = ctypes.c_int
        lib.dram_walk.argtypes = [
            _ptr, _ptr, _ptr, _ptr, _ptr, _i64,             # k sides
            _i64, _i64, _i64, _i64,                         # shifts
            _ptr,                                           # registers
        ]
        lib.dram_keys.restype = ctypes.c_int
        lib.dram_keys.argtypes = [
            _ptr, _ptr, _i64,                               # blocks
            _i64, _i64, _i64, _i64,                         # shifts
            _ptr, _ptr,                                     # keys, counts
        ]
        lib.expand_start.restype = _i64
        lib.expand_start.argtypes = [
            _ptr, _ptr, _ptr, _i64,                         # range timing
            _ptr, _ptr, _ptr, _ptr,                         # cursor
        ]
        lib.expand_merge.restype = _i64
        lib.expand_merge.argtypes = [
            _ptr, _ptr, _ptr, _ptr, _ptr, _ptr, _ptr,       # range columns
            _i64, _i64,                                     # n, block bytes
            _ptr, _ptr, _ptr, _ptr,                         # cursor
            _i64, _i64,                                     # stop, cap
            _ptr, _ptr, _ptr, _ptr, _ptr,                   # block columns
        ]
        lib.drive_fused.restype = ctypes.c_int
        lib.drive_fused.argtypes = [
            _ptr, _ptr, _ptr, _i64,                         # data side
            _ptr, _ptr, _ptr, _i64,                         # over-fetch side
            _i64,                                           # key shift
            _i64, _i64, _ptr, _ptr, _i64,                   # mac side
            _i64, _i64, _ptr, _ptr, _i64,                   # vn side
            _i64, _ptr, _ptr,                               # walk spec
            _ptr, _ptr, _ptr, _i64, _ptr,                   # mac events
            _ptr, _ptr, _ptr, _i64, _ptr,                   # vn events
            _ptr, _ptr,                                     # stats, carry
            _ptr, _ptr, _ptr,                               # mac state
            _ptr, _ptr, _ptr,                               # vn state
        ]
        _lib = lib
    except Exception as exc:
        _degrade(f"{type(exc).__name__}: {exc}")
        _lib = None
    return _lib


def available() -> bool:
    return _load() is not None


_from_buffer = ctypes.c_char.from_buffer
_addressof = ctypes.addressof


def address(arr: np.ndarray) -> int:
    """Data address of a contiguous array.

    An address, unlike a ``data_as`` pointer, does not keep its array
    alive: callers bind every array they pass to a name that outlives
    the kernel call. A writable non-empty array's address comes from
    the buffer protocol, a third of the cost of ``arr.ctypes.data``;
    a read-only or empty one takes ``arr.ctypes``.
    """
    try:
        return _addressof(_from_buffer(arr))
    except (TypeError, ValueError):
        return arr.ctypes.data


_EMPTY64 = np.empty(0, np.int64)
_EMPTY8 = np.empty(0, np.uint8)


_EMPTY64_ADDR = address(_EMPTY64)
_EMPTY8_ADDR = address(_EMPTY8)
#: The data addresses and length a drive passes for an empty side.
_EMPTY_SIDE = (_EMPTY64_ADDR, _EMPTY8_ADDR, _EMPTY64_ADDR, 0)


def column_ptrs(stream) -> Optional[Tuple[int, int, int]]:
    """``(addrs, cycles, writes)`` data addresses of a block stream's
    columns, resolved once and kept on the stream: every scheme of a
    sweep cell walks and drives the same window's blocks.  ``None``
    when a kernel could not read a column in place (not contiguous, or
    not int64 / uint64 addresses, int64 cycles and bool writes)."""
    ptrs = stream.__dict__.get("_ptrs")
    if ptrs is None:
        addrs, cycles, writes = stream.addrs, stream.cycles, stream.writes
        if (addrs.dtype not in (np.int64, np.uint64)
                or cycles.dtype != np.int64 or writes.dtype != bool
                or not (addrs.flags.c_contiguous and cycles.flags.c_contiguous
                        and writes.flags.c_contiguous)):
            return None
        ptrs = stream.__dict__["_ptrs"] = (address(addrs), address(cycles),
                                           address(writes))
    return ptrs

#: Reused output buffers, each next to its data address (the kernel
#: runs are serial within a process; results are copied out before the
#: next call).
_scratch_bufs = {}


def _scratch(name: str, size: int, dtype) -> Tuple[np.ndarray, int]:
    entry = _scratch_bufs.get(name)
    if entry is None or len(entry[0]) < size:
        buf = np.empty(max(size, 4096), dtype)
        entry = _scratch_bufs[name] = (buf, address(buf))
    return entry


class DriveOutput:
    """Events, stats and final state (LRU order) for one cache from a
    drive: the kernel, or its scalar twin."""

    __slots__ = ("ev_cycles", "ev_addrs", "ev_writes", "hits", "misses",
                 "evictions", "dirty_evictions", "state_tags", "state_dirty")

    def __init__(self, cyc, addr, wr, stats, state_tags, state_dirty):
        self.ev_cycles = cyc
        self.ev_addrs = addr
        self.ev_writes = wr
        self.hits, self.misses, self.evictions, self.dirty_evictions = \
            (int(v) for v in stats)
        self.state_tags = state_tags
        self.state_dirty = state_dirty


#: Most block sides one drive merges: a layer's data and over-fetch
#: blocks.
DRIVE_MAX_SIDES = 2

#: Most integrity-tree levels a drive walks (``DRIVE_MAX_LEVELS`` in the
#: kernel).
DRIVE_MAX_LEVELS = 60

#: Length of a drive's carry (:func:`new_carry`): open flag, run key,
#: write flag, MAC tag, VN tag count, then up to ``DRIVE_MAX_LEVELS +
#: 1`` VN tags.
CARRY_LEN = 6 + DRIVE_MAX_LEVELS


def new_carry() -> np.ndarray:
    """A drive carry with no line run open: what a drive that continues
    across calls passes as ``carry`` (see :func:`fused_drive`)."""
    return np.zeros(CARRY_LEN, np.int64)


class CarryError(RuntimeError):
    """A line run cut by a window met a write after its access, and the
    access's own tree walk had evicted one of the lines it touched: a VN
    cache that cannot hold one tree walk cannot be served in windows."""


def fused_drive(sides: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
                key_shift: int,
                mac: Optional[Tuple[int, int, Tuple]] = None,
                vn: Optional[Tuple[int, int, Tuple, np.ndarray,
                                   np.ndarray]] = None,
                carry: Optional[np.ndarray] = None,
                ) -> Optional[Tuple[Optional[DriveOutput],
                                    Optional[DriveOutput]]]:
    """Drive MAC and/or VN caches over a layer's block sides in native
    code.

    ``sides`` holds one or two ``(keys, writes, cycles)`` block sides,
    each expected cycle-sorted (a layer's data, then its over-fetch),
    optionally followed by the three columns' data addresses;
    the kernel walks their merge keyed ``(cycle, side)``, so the first
    side wins equal cycles.  ``keys`` are per-block keys (a stream's
    addresses): consecutive blocks of the merge with equal ``key >>
    key_shift`` (logical) are one access, also across the side
    boundary; its write flag is the OR of theirs and its cycle is its
    first block's. The access's metadata line index is ``key >>
    key_shift``, and every tag is one 64 B line.  ``mac`` is
    ``(tag_base, capacity_lines, state)``; ``vn`` is ``(tag_base,
    capacity_lines, state, node_base_tags, node_divs)``, the node
    arrays contiguous int64, where a line's level-``l`` tree node is
    ``node_base_tags[l - 1] + line // node_divs[l - 1]``.  A ``state``
    is a cache's contents as a drive returns them: ``(tags, dirty)``
    contiguous int64 and uint8 arrays in LRU order.  ``carry``
    (:func:`new_carry`), updated in place, continues the line run the
    previous call left open: its access was made there, at its first
    block's cycle, so blocks on its line only add their writes (a
    write dirties the lines the access touched; :class:`CarryError`
    when one is gone), and the call leaves its own last run in it.
    Without ``carry``, the call is a whole drive.  A side whose cycles
    descend is reported by the kernel, stable-sorted
    (``native.drive.unsorted_side``) and the drive retried.  Returns
    ``None`` when the kernel is unavailable, otherwise ``(mac_output,
    vn_output)``.
    """
    lib = _load()
    if lib is None:
        obs.incr("native.drive.python_fallback")
        return None
    if not 1 <= len(sides) <= DRIVE_MAX_SIDES:
        raise ValueError(f"fused_drive: 1 to {DRIVE_MAX_SIDES} block "
                         f"sides, got {len(sides)}")
    # Per side: (keys, writes, cycles) data addresses and length; the
    # converted columns a side without addresses needs stay in ``keep``.
    side_ptrs = [_EMPTY_SIDE] * DRIVE_MAX_SIDES
    keep = []
    n = 0
    for s, side in enumerate(sides):
        keys = side[0]
        length = len(keys)
        if len(side[1]) != length or len(side[2]) != length:
            raise ValueError("fused_drive: a side's columns differ in "
                             "length")
        n += length
        if not length:
            continue
        if len(side) == 6:
            side_ptrs[s] = (*side[3:], length)
        else:
            cols = _drive_side(*side[:3])
            keep.append(cols)
            side_ptrs[s] = (*map(address, cols), length)

    mac_base = mac_cap = mac_len = 0
    mac_init_ptrs = (_EMPTY64_ADDR, _EMPTY8_ADDR)
    if mac is not None:
        mac_base, mac_cap, (mac_tags, mac_dirty) = mac
        mac_len = len(mac_tags)
        if mac_len:
            mac_init_ptrs = (address(mac_tags), address(mac_dirty))
    vn_base = vn_cap = vn_len = levels = 0
    vn_init_ptrs = node_ptrs = (_EMPTY64_ADDR, _EMPTY64_ADDR)
    if vn is not None:
        vn_base, vn_cap, (vn_tags, vn_dirty), node_base, node_div = vn
        vn_len = len(vn_tags)
        if vn_len:
            vn_init_ptrs = (address(vn_tags), address(vn_dirty))
        levels = len(node_base)
        if levels:
            node_ptrs = (address(node_base), address(node_div))
    if levels > DRIVE_MAX_LEVELS:
        raise ValueError(f"fused_drive: at most {DRIVE_MAX_LEVELS} tree "
                         f"levels, got {levels}")
    carry_ptr = 0 if carry is None else address(carry)

    # Runs never outnumber blocks and emit at most two MAC events each;
    # a VN overflow retries sized by the kernel's run count.
    mac_ev_cap = vn_ev_cap = 2 * n + 16
    mac_state_cap = max(1, min(mac_cap, mac_len + n))
    vn_state_cap = max(1, min(vn_cap, vn_len + n * (levels + 1)))

    while True:
        m_cyc, m_cyc_p = _scratch("mc", mac_ev_cap, np.int64)
        m_addr, m_addr_p = _scratch("ma", mac_ev_cap, np.int64)
        m_wr, m_wr_p = _scratch("mw", mac_ev_cap, np.uint8)
        v_cyc, v_cyc_p = _scratch("vc", vn_ev_cap, np.int64)
        v_addr, v_addr_p = _scratch("va", vn_ev_cap, np.int64)
        v_wr, v_wr_p = _scratch("vw", vn_ev_cap, np.uint8)
        # One block for the stats (9), the four output lengths (MAC
        # events, VN events, MAC state, VN state) and both final
        # states' tags; one for both states' dirty flags.
        ints = np.empty(13 + mac_state_cap + vn_state_cap, np.int64)
        flags = np.empty(mac_state_cap + vn_state_cap, np.uint8)
        ip, fp = address(ints), address(flags)
        (keys_a, wr_a, cyc_a, len_a), (keys_b, wr_b, cyc_b, len_b) = \
            side_ptrs
        rc = lib.drive_fused(
            keys_a, wr_a, cyc_a, len_a, keys_b, wr_b, cyc_b, len_b,
            key_shift,
            mac_base, mac_cap, *mac_init_ptrs, mac_len,
            vn_base, vn_cap, *vn_init_ptrs, vn_len,
            levels, *node_ptrs,
            m_cyc_p, m_addr_p, m_wr_p, mac_ev_cap, ip + 9 * 8,
            v_cyc_p, v_addr_p, v_wr_p, vn_ev_cap, ip + 10 * 8,
            ip, carry_ptr,
            ip + 13 * 8, fp, ip + 11 * 8,
            ip + (13 + mac_state_cap) * 8, fp + mac_state_cap, ip + 12 * 8,
        )
        if rc in (2, 3):
            # Stable-sorting the descending side keeps the merge's
            # order: the drive then walks the stable cycle sort of the
            # sides' concatenation.
            obs.incr("native.drive.unsorted_side")
            keys, writes, cycles = _drive_side(*sides[rc - 2][:3])
            order = np.argsort(cycles, kind="stable")
            cols = keys[order], writes[order], cycles[order]
            keep.append(cols)
            side_ptrs[rc - 2] = (*map(address, cols), len(keys))
            continue
        vn_ev_worst = 2 * int(ints[8]) * (levels + 1) + 16
        if rc == 1 and vn_ev_cap < vn_ev_worst:
            vn_ev_cap = vn_ev_worst
            continue
        if rc == 4:
            raise CarryError("a window-cut line run's write found a line "
                             "its access touched evicted")
        if rc != 0:
            obs.incr("native.drive.python_fallback")
            return None
        break
    obs.incr("native.drive.kernel")

    m_n, v_n, ms_n, vs_n = ints[9:13].tolist()
    mac_out = vn_out = None
    if mac is not None:
        mac_out = DriveOutput(m_cyc[:m_n].copy(), m_addr[:m_n].copy(),
                              m_wr[:m_n].copy(), ints[:4].tolist(),
                              ints[13:13 + ms_n], flags[:ms_n])
    if vn is not None:
        base = 13 + mac_state_cap
        vn_out = DriveOutput(v_cyc[:v_n].copy(), v_addr[:v_n].copy(),
                             v_wr[:v_n].copy(), ints[4:8].tolist(),
                             ints[base:base + vs_n],
                             flags[mac_state_cap:mac_state_cap + vs_n])
    return mac_out, vn_out


def _drive_side(keys, writes, cycles) -> Tuple[np.ndarray, ...]:
    """A drive side's columns as the kernel reads them: contiguous int64
    keys and cycles, one byte per write flag."""
    return (as_int64(keys), np.ascontiguousarray(writes, bool).view(np.uint8),
            as_int64(cycles))


def as_int64(arr: np.ndarray) -> np.ndarray:
    """Contiguous int64 view (free for the internal int64 arrays; a
    uint64 address array reinterprets without copying)."""
    arr = np.ascontiguousarray(arr)
    if arr.dtype == np.int64:
        return arr
    if arr.dtype == np.uint64:
        return arr.view(np.int64)
    return arr.astype(np.int64)


#: Most sides one DRAM walk merges: a layer's data and over-fetch
#: blocks, then its MAC and VN traffic (``DRAM_MAX_SIDES`` in the
#: kernel).
WALK_MAX_SIDES = 4


def walk_registers(channels: int, banks_per_channel: int) -> np.ndarray:
    """A cold memory system's registers for :func:`dram_walk`: per
    channel a request and a conflict count, then one open-row register
    per bank (``INT64_MIN``: closed), then as many the walk saves them
    to."""
    return np.full(channels * (2 + 2 * banks_per_channel),
                   np.iinfo(np.int64).min, np.int64)


#: A walk side's flags (``DRAM_SIDE_*`` in the kernel): its column
#: holds packed keys and it comes with its per-channel request counts
#: (:func:`dram_keys`), not block addresses; its cycles are known to
#: ascend.
WALK_PACKED = 1
WALK_ASCENDING = 2

#: The walk's per-side arrays (columns, cycles, lengths, flags, request
#: counts), reused across calls with their data addresses.
_WALK_SIDES = tuple(np.zeros(WALK_MAX_SIDES, dtype)
                    for dtype in (np.uintp, np.uintp, np.int64, np.int64,
                                  np.uintp))
_WALK_PTRS = tuple(address(arr) for arr in _WALK_SIDES)


def dram_walk(sides: Sequence[Tuple[int, int, int, int, int]],
              shifts: Tuple[int, int, int, int], regs_addr: int
              ) -> Optional[int]:
    """Native issue-order walk behind ``DramSim._walk``.

    ``sides`` holds up to :data:`WALK_MAX_SIDES` non-empty sides, each
    ``(column, cycles, length, flags, requests)``: the data addresses of
    a contiguous int64 column and of its int64 cycles, expected
    cycle-sorted, the side's length, its flags, and the data address of
    its per-channel request counts (int64) or 0. With
    :data:`WALK_PACKED` the column holds packed keys and the counts are
    the side's (both from :func:`dram_keys`), otherwise the column holds
    block addresses; :data:`WALK_ASCENDING` says its cycles ascend. The
    walk visits the sides' merge keyed ``(cycle, side index)``, so a
    lower side wins equal cycles. ``shifts`` are the power-of-two
    mapping shifts ``(block, channel, column, bank)``. ``regs_addr`` is
    the data address of a :func:`walk_registers` array for this
    mapping: the kernel writes this walk's per-channel request counts,
    then its row-conflict counts, and starts from and updates the
    per-bank open-row registers. Returns ``None`` when the kernel is
    unavailable, otherwise the kernel's code: 0, or ``s + 1`` when side
    ``s``'s cycles descend (the counts are then partial, the open rows
    as the walk found them).
    """
    lib = _load()
    if lib is None:
        return None
    if len(sides) > WALK_MAX_SIDES:
        raise ValueError(f"dram_walk: at most {WALK_MAX_SIDES} sides, "
                         f"got {len(sides)}")
    cols, cycles, lens, flags, requests = _WALK_SIDES
    for s, side in enumerate(sides):
        cols[s], cycles[s], lens[s], flags[s], requests[s] = side
    rc = lib.dram_walk(*_WALK_PTRS, len(sides), *shifts, regs_addr)
    obs.incr("native.dram_walk.kernel")
    return rc


def dram_keys(addrs: np.ndarray, cycles: np.ndarray,
              shifts: Tuple[int, int, int, int]
              ) -> Optional[Tuple[np.ndarray, np.ndarray, bool]]:
    """Packed DRAM key of every block address under power-of-two
    mapping ``shifts`` ``(block, channel, column, bank)``: its row
    shifted left by ``channel + bank`` bits, over its global bank
    ``channel << bank_shift | bank``. Returns the keys, the blocks'
    per-channel request counts and whether their int64 ``cycles``
    ascend, or ``None`` when the kernel is unavailable."""
    lib = _load()
    if lib is None:
        return None
    if len(addrs) != len(cycles):
        raise ValueError("dram_keys: addrs and cycles differ in length")
    addrs, cycles = as_int64(addrs), as_int64(cycles)
    keys = np.empty(len(addrs), np.int64)
    requests = np.empty(1 << shifts[1], np.int64)
    ascending = lib.dram_keys(address(addrs), address(cycles), len(addrs),
                              *shifts, address(keys), address(requests))
    obs.incr("native.dram_keys.kernel")
    return keys, requests, bool(ascending)


class _ExpandState:
    """A native expansion's columns, its kernel-owned cursor, the blocks
    it covers and the arguments of every call, addresses resolved
    once."""

    __slots__ = ("keep", "heap_c", "size", "total", "args")


def expand_cursor(cycles: np.ndarray, first: np.ndarray, counts: np.ndarray,
                  durations: np.ndarray, writes: np.ndarray,
                  kinds: np.ndarray, layer_ids: np.ndarray,
                  block_bytes: int) -> Optional[_ExpandState]:
    """Start a native resumable cycle-sorted block expansion behind
    ``repro.accel.trace.ExpandCursor``.

    Range ``r`` covers ``counts[r]`` blocks from address ``first[r]``,
    issued across ``[cycles[r], cycles[r] + durations[r])``.  Returns the
    state :func:`expand_merge` and :func:`expand_peek` advance, or
    ``None`` when the kernel is unavailable or a range's block
    arithmetic could overflow (``native.expand_merge.overflow``, checked
    by the kernel's ``expand_start``); the caller then runs the numpy
    twin.
    """
    lib = _load()
    if lib is None:
        return None
    n = len(counts)
    if any(len(col) != n for col in (cycles, first, durations, writes,
                                      kinds, layer_ids)):
        raise ValueError("expand_merge: range columns differ in length")
    slots = max(n, 1)
    # Heap ranges, heap cycles and per-range progress, then the heap
    # size.
    cursor = np.empty(3 * slots + 1, np.int64)
    base = address(cursor)
    heap = (base, base + 8 * slots, base + 16 * slots, base + 24 * slots)
    keep = (np.ascontiguousarray(cycles, np.int64),
            np.ascontiguousarray(first, np.int64),
            np.ascontiguousarray(counts, np.int64),
            np.ascontiguousarray(durations, np.int64),
            np.ascontiguousarray(writes, bool).view(np.uint8),
            np.ascontiguousarray(kinds, np.int8),
            np.ascontiguousarray(layer_ids, np.int32), cursor)
    cols = tuple(address(col) for col in keep[:7])
    total = lib.expand_start(cols[0], cols[2], cols[3], n, *heap)
    if total < 0:
        obs.incr("native.expand_merge.overflow")
        return None
    state = _ExpandState()
    state.keep = keep
    state.heap_c = cursor[slots:2 * slots]
    state.size = cursor[-1:]
    state.total = total
    state.args = (*cols, n, block_bytes, *heap)
    return state


def expand_merge(state: _ExpandState, stop: int, cap: int
                ) -> Tuple[np.ndarray, ...]:
    """The cursor's next blocks issued before ``stop``, at most ``cap``:
    ``(cycles, addrs, writes, layer_ids, kinds)`` block columns, a piece
    of the stable cycle sort of the range-order expansion."""
    lib = _load()
    # One allocation holds the five columns: 8 + 8 + 4 + 1 + 1 bytes a
    # block.
    block = np.empty(22 * max(cap, 1), np.uint8)
    p = address(block)
    k = lib.expand_merge(*state.args, stop, cap, p, p + 8 * cap,
                         p + 20 * cap, p + 21 * cap, p + 16 * cap)
    obs.incr("native.expand_merge.kernel")
    return (block[:8 * k].view(np.int64),
            block[8 * cap:8 * (cap + k)].view(np.uint64),
            block[20 * cap:20 * cap + k].view(bool),
            block[16 * cap:16 * cap + 4 * k].view(np.int32),
            block[21 * cap:21 * cap + k].view(np.int8))


def expand_taken(state: _ExpandState) -> np.ndarray:
    """How many blocks each range of the cursor has emitted (a copy)."""
    n = len(state.keep[2])
    slots = max(n, 1)
    return state.keep[7][2 * slots:2 * slots + n].copy()


def expand_resume(state: _ExpandState, taken: np.ndarray) -> None:
    """Move the cursor on so that range ``r`` has emitted ``taken[r]``
    blocks (never fewer than it has), rebuilding the kernel's heap: the
    ranges with blocks left, sorted by (next block's cycle, range),
    which is a valid min-heap."""
    cycles, _, counts, durations = state.keep[:4]
    cursor = state.keep[7]
    n = len(counts)
    slots = max(n, 1)
    live = np.flatnonzero(taken < counts)
    heads = cycles[live] + taken[live] * durations[live] // counts[live]
    order = np.argsort(heads, kind="stable")
    cursor[:len(live)] = live[order]
    cursor[slots:slots + len(live)] = heads[order]
    cursor[2 * slots:2 * slots + n] = taken
    cursor[-1] = len(live)


def expand_peek(state: _ExpandState) -> Optional[int]:
    """Issue cycle of the cursor's next block, ``None`` when done."""
    return int(state.heap_c[0]) if state.size[0] > 0 else None
