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

import gc
from dataclasses import dataclass

import numpy as np

ROOT = 0
NO_PARENT = -1


class ConfigError(ValueError):
    """Invalid simulation configuration."""


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
        if self.target_nodes < 1:
            raise ConfigError(f"target_nodes must be >= 1, got {self.target_nodes}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must fit in 64 bits, got {self.seed}")

    @property
    def total_steps(self) -> int:
        return self.step_parameter * (self.target_nodes - 1)


# Draws are 62-bit integers taken in chunks of at most _CHUNK. PCG64's
# ``integers(0, 2**62)`` consumes one 64-bit output per value, so the
# sequence is the same however it is chunked.
_CHUNK = 1 << 15
_DRAW_BOUND = 1 << 62


def bit_stream(seed: int, stream_id: int = 0) -> np.random.Generator:
    """The PCG64 generator of ``(seed, stream_id)``; distinct ``stream_id``
    values give independent streams via ``SeedSequence`` spawn keys."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream_id,))
    return np.random.Generator(np.random.PCG64(ss))


class PrngStream:
    """Deterministic uniform-integer source over ``bit_stream``.

    The same ``(seed, stream_id)`` pair always reproduces the same draw
    sequence. ``randbelow(n)`` maps a buffered 62-bit draw into ``[0, n)`` by
    modular reduction; the bias is below ``n * 2**-62``, irrelevant next to
    the Monte Carlo noise floor of any consumer here, and the mapping is
    exactly reproducible.
    """

    _CHUNK = _CHUNK

    def __init__(self, seed: int, stream_id: int = 0):
        self._gen = bit_stream(seed, stream_id)
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


def run(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Execute a full run: ``s * (N - 1)`` steps, attaching vertices 1..N-1.

    Returns ``(parent, positions)``: ``parent[v]`` is the vertex ``v`` was
    attached to (``NO_PARENT`` for the root) and ``positions[t - 1]`` is the
    walker's position after step ``t``. Bit-deterministic in ``config``.

    Each vertex keeps its walk neighbours in draw order, ``[ROOT, ROOT,
    children...]`` at the root (the self-loop twice) and ``[parent,
    children...]`` elsewhere, so a step indexes that list with the draw
    reduced modulo its length: the mapping ``PrngStream.randbelow`` applies
    to the same stream.

    The cyclic garbage collector is off while the loop runs (and back on
    after it only if the caller had it on): the loop allocates one list per
    attached vertex, which would trigger collections, and makes no
    reference cycles for them to free.
    """
    s, total = config.step_parameter, config.total_steps
    positions = np.empty(total, dtype=np.int32)
    parent = [NO_PARENT]
    nb = [[ROOT, ROOT]]
    gen = bit_stream(config.seed)
    pos = ROOT
    until_attach = s
    done = 0
    chunk: list[int] = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        while done < total:
            size = min(_CHUNK, total - done)
            chunk = []
            record = chunk.append
            for r in gen.integers(0, _DRAW_BOUND, size=size).tolist():
                here = nb[pos]
                pos = here[r % len(here)]
                record(pos)
                until_attach -= 1
                if not until_attach:
                    until_attach = s
                    nb[pos].append(len(nb))
                    nb.append([pos])
                    parent.append(pos)
            positions[done:done + size] = chunk
            done += size
    except MemoryError as exc:
        clock = done + len(chunk)
        raise ResourceExhausted(f"out of memory at clock {clock}",
                                vertices_built=len(parent),
                                clock=clock) from exc
    finally:
        if collecting:
            gc.enable()
    return np.array(parent, dtype=np.int64), positions


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
