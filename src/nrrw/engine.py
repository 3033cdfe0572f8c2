"""Core simulation engine for the no-restart random walk (NRRW) tree growth
process.

A walker starts on a single root vertex carrying a self-loop. Every discrete
time step it moves to a uniformly chosen incident edge endpoint (the self-loop
counts twice in the root's degree and is taken with probability 2/deg). After
every ``s`` steps a new degree-one vertex is attached to the walker's current
position; the attachment itself takes zero time. The structure is always a
tree rooted at vertex 0 plus the single self-loop at the root.

Vertex ``j`` is the one attached at time ``j * s`` (the root is vertex 0,
born at time 0).
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = 0
NO_PARENT = -1


class ConfigError(ValueError):
    """Invalid simulation configuration."""


class KernelUnavailable(RuntimeError):
    """The step kernel could not be built or loaded: nrrw cannot run."""


class ResourceExhausted(RuntimeError):
    """Run aborted; carries the progress reached when the failure occurred."""

    def __init__(self, message: str, vertices_built: int, clock: int):
        super().__init__(message)
        self.vertices_built = vertices_built
        self.clock = clock


@dataclass(frozen=True)
class SimConfig:
    """Parameters of a single run.

    The run executes ``step_parameter * (target_nodes - 1)`` walker steps so
    that vertices ``1 .. target_nodes - 1`` are attached.
    """

    step_parameter: int
    target_nodes: int
    seed: int

    def __post_init__(self):
        if self.step_parameter < 1:
            raise ConfigError(f"step_parameter must be >= 1, got {self.step_parameter}")
        if not 1 <= self.target_nodes < 2**31:
            raise ConfigError("target_nodes must be in [1, 2**31) (vertex ids "
                              f"are int32), got {self.target_nodes}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")

    @property
    def total_steps(self) -> int:
        return self.step_parameter * (self.target_nodes - 1)


# Draws are 62-bit integers. PCG64's ``integers(0, 2**62)`` consumes one
# 64-bit output per value, so the sequence is the same however many values
# one call takes.
_DRAW_BOUND = 1 << 62
_LOW_HALF = (1 << 64) - 1


def bit_stream(seed: int) -> np.random.Generator:
    """The PCG64 generator of ``seed``: ``SeedSequence(seed)`` with spawn
    key ``(0,)``, the key every pinned output was drawn with."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(0,))
    return np.random.Generator(np.random.PCG64(ss))


def pcg64_halves(gen: np.random.Generator) -> tuple[int, int, int, int]:
    """The state and increment of ``gen``'s PCG64 generator, each as its
    high and low 64-bit halves: what the kernel needs to draw the values
    ``gen.integers(0, 2**62)`` would."""
    pcg = gen.bit_generator.state["state"]
    state, inc = pcg["state"], pcg["inc"]
    return state >> 64, state & _LOW_HALF, inc >> 64, inc & _LOW_HALF


class PrngStream:
    """Deterministic uniform-integer source over ``bit_stream``.

    The same ``seed`` always reproduces the same draw sequence.
    ``randbelow(n)`` maps a buffered 62-bit draw into ``[0, n)`` by modular
    reduction; the bias is below ``n * 2**-62``, irrelevant next to the Monte
    Carlo noise of any consumer here, and the mapping is exactly reproducible.
    """

    _CHUNK = 1 << 15

    def __init__(self, seed: int):
        self._gen = bit_stream(seed)
        self._buf: list[int] = []
        self._pos = 0

    def randbelow(self, n: int) -> int:
        pos = self._pos
        buf = self._buf
        if pos == len(buf):
            buf = self._gen.integers(0, _DRAW_BOUND, size=self._CHUNK).tolist()
            self._buf = buf
            pos = 0
        self._pos = pos + 1
        return buf[pos] % n


# A room for the kernel of this many bytes or more is a fresh mapping, not
# heap memory: glibc's default mmap threshold, which _fix_heap_thresholds
# raises for the heap.
_MAPPED_ROOM = 128 << 10


class Tally(ctypes.Structure):
    """What the kernel's ``walk`` takes of a run as it steps, and the room
    it writes into: ``tally`` in ``_walk.c``, whose comment says what each
    field holds. The grids and the short arrays the kernel fills are views
    of one ``int64`` array, the bounce arrays of one ``int32`` array, and
    the renewal gaps have an array of their own. ``views`` keeps each by
    field name: the tally holds only their addresses, so they live as long
    as it does."""

    _fields_ = ([(name, ctypes.c_void_p) for name in ("sizes", "checkpoints")]
                + [(name, ctypes.c_int64)
                   for name in ("n_sizes", "n_checkpoints")]
                + [(name, ctypes.c_void_p) for name in (
                    "anchors", "tails", "leaves_at", "visits_at", "loops_at",
                    "neutral_gaps", "degrees", "degree_counts")]
                + [(name, ctypes.c_int64) for name in (
                    "neutral", "n_degrees", "leaf_count", "max_depth",
                    "root_visits", "loops", "root_last_visit")])

    def __init__(self, config: SimConfig, sizes: list[int],
                 checkpoints: list[int], bounce: bool):
        """Room for the statistics of ``config``'s run: the leaf count at
        each vertex count of ``sizes``, the root's counts at each of
        ``checkpoints`` (both ascending, from 1 to the target size), and the
        bounce arrays if ``bounce``."""
        super().__init__(n_sizes=len(sizes), n_checkpoints=len(checkpoints))
        s, n = config.step_parameter, config.target_nodes
        # distinct walk degrees d_1 < d_2 < ... sum to at most 2n
        distinct = math.isqrt(4 * n) + 1
        self.views: dict[str, np.ndarray] = {}
        self._place(np.int64, sizes=len(sizes), checkpoints=len(checkpoints),
                    leaves_at=len(sizes), visits_at=len(checkpoints),
                    loops_at=len(checkpoints), degrees=distinct,
                    degree_counts=distinct)
        # one entry per leaf-neutral vertex: up to n - 2, but at even s a
        # few hundred. A large room is a fresh mapping, of which only the
        # pages the kernel writes become resident.
        gaps = max(n - 2, 0)
        if 8 * gaps >= _MAPPED_ROOM:
            import mmap  # only for large runs: ``import nrrw`` skips it
            room = np.frombuffer(mmap.mmap(-1, 8 * gaps), dtype=np.int64)
        else:
            room = np.empty(gaps, dtype=np.int64)
        self.views["neutral_gaps"] = room
        self.neutral_gaps = room.ctypes.data
        if bounce:
            anchors = len(range(s + s % 2, config.total_steps + 1, 2))
            self._place(np.int32, anchors=anchors, tails=anchors)
        self.views["sizes"][:] = sizes
        self.views["checkpoints"][:] = checkpoints

    def _place(self, dtype, **lengths: int):
        """One array of ``dtype``, cut into fields of these lengths."""
        room = np.empty(sum(lengths.values()), dtype=dtype)
        address, start = room.ctypes.data, 0
        for name, length in lengths.items():
            self.views[name] = room[start:start + length]
            setattr(self, name, address + start * room.itemsize)
            start += length


def run(config: SimConfig, tally: Tally | None = None
        ) -> tuple[np.ndarray, np.ndarray]:
    """Execute a full run: ``s * (N - 1)`` steps, attaching vertices 1..N-1.

    Returns ``(parent, positions)``: ``parent[v]`` is the vertex ``v`` was
    attached to (``NO_PARENT`` for the root) and ``positions[t - 1]`` is the
    walker's position after step ``t``. Bit-deterministic in ``config``.

    Each vertex keeps its walk neighbours in draw order, ``[ROOT, ROOT,
    children...]`` at the root (the self-loop twice) and ``[parent,
    children...]`` elsewhere, so a step indexes that list with the draw
    reduced modulo its length: the mapping ``PrngStream.randbelow`` applies
    to the same stream. A list of up to two entries lives in its vertex's
    slot, one of up to 1,024 in a block of the run's own chunks, taken from
    a free list of its size class, and a longer one on the heap
    (``_walk.c`` says how): at s=1 some list grows on about four steps in
    ten. The compiled kernel takes the steps in one call,
    stepping the stream's PCG64 generator itself from the state and
    increment of ``bit_stream(seed)``: the draws numpy's ``integers(0,
    2**62)`` would give, which ``tests/reference.py`` steps a Python loop
    on.

    The kernel steps off a non-root vertex without a child, whose one
    neighbour is the parent the walker came from, straight back to the
    previous position: it keeps one byte per vertex saying whether it has
    a child and never loads such a leaf's list. At even s about half the
    steps start on a leaf. The step still uses up its draw, as ``r % 1``
    would, so each later step reads the same draw.

    With a ``tally``, the kernel also takes the run's statistics as it
    steps, from what its loop holds (``_walk.c`` says how). A new statistic
    is therefore a kernel tally, its numpy derivation in
    ``stats.derive_record``, which criterion 9 and the kernel tests hold
    the tally to, and its streamed value in the tests' reference summary.

    Every run loads the kernel, a 0-step run too (``KernelUnavailable``
    where it cannot be built). Running out of memory raises
    ``ResourceExhausted`` with the progress reached.
    """
    s, n = config.step_parameter, config.target_nodes
    total = config.total_steps
    kernel = _kernel()
    taken = 0
    try:
        # a room of one entry at least: from_buffer takes no empty array
        positions = np.empty(max(total, 1), dtype=np.int32)
        parent = np.full(n, NO_PARENT, dtype=np.int64)
        taken = kernel.walk(s, n, *pcg64_halves(bit_stream(config.seed)),
                            total, ctypes.c_int32.from_buffer(positions),
                            ctypes.c_int64.from_buffer(parent), tally)
        if taken < total:
            raise MemoryError
    except MemoryError as exc:
        raise ResourceExhausted(f"out of memory at clock {taken}",
                                vertices_built=1 + taken // s,
                                clock=taken) from exc
    return parent, positions[:total]


# The kernel is built with the system gcc on first use in a process, into
# a per-user cache keyed by the source and the flags, and loaded with ctypes;
# nrrw has no other stepper, so a process that cannot build it cannot run.
_KERNEL_SOURCE = Path(__file__).with_name("_walk.c")
_CFLAGS = ("-O2", "-shared", "-fPIC")


@functools.cache
def _kernel():
    """The compiled kernel library, exporting ``walk`` (``run``'s steps),
    ``star`` (``oracles.sample_star``) and ``depths`` (``stats.depths``).
    Fixes the heap's thresholds first. Raises ``KernelUnavailable`` when
    the library cannot be built or loaded; a later call tries again."""
    _fix_heap_thresholds()
    try:
        lib = ctypes.CDLL(str(_kernel_library()))
    except (OSError, subprocess.SubprocessError) as exc:
        raise KernelUnavailable(
            f"nrrw needs gcc to build its step kernel: {exc}") from exc
    halves = (ctypes.c_uint64,) * 4  # a PCG64 state, as pcg64_halves
    i64, p_i64 = ctypes.c_int64, ctypes.POINTER(ctypes.c_int64)
    lib.walk.argtypes = (i64, i64, *halves, i64,
                         ctypes.POINTER(ctypes.c_int32), p_i64,
                         ctypes.POINTER(Tally))
    lib.walk.restype = i64
    lib.star.argtypes = (i64, i64, i64, *halves, i64, p_i64, p_i64)
    lib.star.restype = None
    lib.depths.argtypes = (i64, p_i64, p_i64)
    lib.depths.restype = i64
    return lib


def _fix_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds, once per process.

    A run allocates and frees blocks of a few MB: the kernel's vertex
    array, ``positions``, ``parent`` and the collectors' arrays. glibc maps
    a block above its mmap threshold afresh, gives the heap's free top back
    above its trim threshold, and raises both as mapped blocks are freed.
    Whether a run reused the pages of the run before or faulted in new ones
    then turned on which small blocks sat above the large ones: at s=2,
    N=2e5 some seeds took about 2,100 page faults a run and others none,
    8.4 against 5.7 ms a pass on a 2-core VM. Fixed at glibc's largest
    mmap threshold, 32 MiB, and twice that for trimming (glibc's own
    ratio), every run of that size reuses its pages. Where ``mallopt`` is
    missing or ignores these, nothing changes."""
    if not sys.platform.startswith("linux"):
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _kernel_library() -> Path:
    """The kernel's shared library in the cache directory, compiled unless
    a library of this source and these flags is there already. It compiles
    to a temporary name and renames that into place, so processes that
    build at once leave one whole file."""
    import hashlib  # loads OpenSSL: a few ms that ``import nrrw`` skips
    key = hashlib.sha256(_KERNEL_SOURCE.read_bytes()
                         + " ".join(_CFLAGS).encode()).hexdigest()[:16]
    lib = _cache_dir() / f"walk-{key}.so"
    if lib.is_file():
        return lib
    gcc = shutil.which("gcc")
    if gcc is None:
        raise OSError("gcc not found")
    fd, tmp = tempfile.mkstemp(prefix=f"{lib.name}.", dir=lib.parent)
    os.close(fd)
    try:
        subprocess.run([gcc, *_CFLAGS, "-o", tmp, str(_KERNEL_SOURCE)],
                       check=True, capture_output=True, timeout=300)
        os.replace(tmp, lib)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return lib


def _cache_dir() -> Path:
    """``$XDG_CACHE_HOME/nrrw``, else ``~/.cache/nrrw``, else a directory
    under the system temporary directory: the first this user owns and can
    write to. A directory someone else owns is passed over, as the library
    in it would be loaded into this process."""
    xdg = os.environ.get("XDG_CACHE_HOME", "")
    user = xdg if os.path.isabs(xdg) else os.path.expanduser("~/.cache")
    dirs = [Path(tempfile.gettempdir()) / f"nrrw-{os.getuid()}"]
    if os.path.isabs(user):
        dirs.insert(0, Path(user) / "nrrw")
    for cache in dirs:
        try:
            cache.mkdir(mode=0o700, parents=True, exist_ok=True)
            if (cache.stat().st_uid == os.getuid()
                    and os.access(cache, os.W_OK)):
                return cache
        except OSError:
            pass
    raise OSError(f"no writable cache directory in {[str(d) for d in dirs]}")


# ---------------------------------------------------------------------------
# Exports

def _edges(parent: np.ndarray):
    """Edges as (u, v) pairs, the root self-loop first."""
    yield (ROOT, ROOT)
    yield from zip(parent[1:].tolist(), range(1, len(parent)))


def edge_list_lines(parent: np.ndarray, config: SimConfig) -> list[str]:
    """Edge list, one "u v" per line, with a parameter header comment."""
    lines = [f"# nrrw s={config.step_parameter} n={config.target_nodes} "
             f"seed={config.seed}"]
    lines.extend(f"{u} {v}" for u, v in _edges(parent))
    return lines


def dot_lines(parent: np.ndarray) -> list[str]:
    lines = ["graph nrrw {"]
    lines.extend(f"  {u} -- {v};" for u, v in _edges(parent))
    lines.append("}")
    return lines


def trajectory_lines(s: int, positions: np.ndarray) -> list[str]:
    """CSV lines of a run's steps: t,position,via_self_loop,attached.

    A step is a self-loop traversal when it stays at the root (the walker
    starts there), and vertex ``t / s`` attaches at every multiple of ``s``.
    """
    lines = ["t,position,via_self_loop,attached"]
    prev = ROOT
    for t, pos in enumerate(positions.tolist(), 1):
        attached = "" if t % s else t // s
        lines.append(f"{t},{pos},{int(pos == prev == ROOT)},{attached}")
        prev = pos
    return lines
