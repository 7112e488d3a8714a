"""Counter-based random number streams.

Every path in a simulation owns a Philox stream keyed by ``(seed, path index,
stream id)``, packed into the 128-bit Philox key as ``seed << 64 | path << 1 |
stream``.  A path's variates therefore depend only on the seed and its own
index, never on how paths are batched or ordered, so results are bit-identical
under any execution decomposition.

Draw layout per path.  Stream 0, the curve driver: one block of standard
normals of shape (n_steps, d) (one row of d + n + 1 normals for the exact
terminal draw of a jump-free Gaussian affine model), then the jumps: for the
HJM engines one block of Poisson counts of shape (n_steps, n_atoms), for
affine models step by step a Poisson count and one atom choice per jump.
Stream 1, the orthogonal jump factor: no normals, and step by step a Poisson
count and one atom choice per jump.

``PathStreams`` re-keys one Philox generator per path by setting its state
(counter zero, the path's key, an empty buffer), which draws what a fresh
generator would at a fraction of its cost.  It builds that state once and
re-keys by replacing only the key; the seed and stream are validated once,
on construction, and each re-key checks only the path range.  Block draws
use it path after path: ``driver_increment_block`` (the HJM engines and
jump-free affine models) and ``normal_uniform_block``, which draws a path's
normal block and a buffer of the ``random()`` doubles that follow it.
``StreamReplay`` replays from such buffers the step-by-step draws that a
generator per path would make, for all paths of a batch at once: affine
jumps on stream 0 and the kernel-mode jumps of ``momentkernel`` on stream 1.
``path_generator`` builds a fresh generator; only the replay's fallback for
a Poisson mean of 10 or more (or a non-finite one) uses it, and the tests.
"""

from __future__ import annotations

import math

import numpy as np

DRIVER_STREAM = 0
YPERP_STREAM = 1


def path_key(seed: int, path_index: int, stream: int = DRIVER_STREAM) -> int:
    """128-bit Philox key of one path's stream; distinct for distinct arguments."""
    seed, path_index, stream = int(seed), int(path_index), int(stream)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    if not 0 <= path_index < 1 << 63:
        raise ValueError(f"path_index must lie in [0, 2**63), got {path_index}")
    if stream not in (DRIVER_STREAM, YPERP_STREAM):
        raise ValueError(f"stream must be {DRIVER_STREAM} or {YPERP_STREAM}, got {stream}")
    return (seed << 64) | (path_index << 1) | stream


def path_generator(seed: int, path_index: int, stream: int = DRIVER_STREAM) -> np.random.Generator:
    """Generator for one path's private stream."""
    return np.random.Generator(np.random.Philox(key=path_key(seed, path_index, stream)))


class PathStreams:
    """One Philox generator re-keyed to each path's stream in turn.

    ``at(i)`` returns the shared generator positioned at the start of path
    ``i``'s stream: it draws exactly what ``path_generator(seed, i, stream)``
    would, and invalidates whatever ``at`` returned before.
    """

    def __init__(self, seed: int, stream: int = DRIVER_STREAM):
        self._bitgen = np.random.Philox(key=path_key(seed, 0, stream))
        self._gen = np.random.Generator(self._bitgen)
        self.seed, self.stream = int(seed), int(stream)
        # the state of a fresh generator; ``at`` swaps in each path's key
        self._key = {"counter": (0, 0, 0, 0), "key": None}
        self._state = {"bit_generator": "Philox", "state": self._key,
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def at(self, path_index: int) -> np.random.Generator:
        path_index = int(path_index)
        if not 0 <= path_index < 1 << 63:
            raise ValueError(f"path_index must lie in [0, 2**63), got {path_index}")
        # low and high words of path_key(seed, path_index, stream)
        self._key["key"] = (path_index << 1 | self.stream, self.seed)
        self._bitgen.state = self._state
        return self._gen


def driver_increment_block(
    seed: int,
    path_lo: int,
    path_hi: int,
    n_steps: int,
    n_normals: int,
    jump_means: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Normals and jump counts for paths [path_lo, path_hi).

    Returns ``(normals, counts)`` with shapes (n_paths, n_steps, n_normals)
    and (n_paths, n_steps, n_atoms); ``counts`` is None when ``jump_means``
    is None or empty.  ``jump_means`` holds lambda_j * dt per atom.
    """
    n_paths = path_hi - path_lo
    normals = np.empty((n_paths, n_steps, n_normals))
    counts = None
    if jump_means is not None and len(jump_means) > 0:
        counts = np.empty((n_paths, n_steps, len(jump_means)), dtype=np.int64)
    streams = PathStreams(seed)
    for i in range(n_paths):
        gen = streams.at(path_lo + i)
        gen.standard_normal(out=normals[i])
        if counts is not None:
            counts[i] = gen.poisson(lam=jump_means, size=(n_steps, len(jump_means)))
    return normals, counts


def normal_uniform_block(seed: int, paths, n_steps: int, n_normals: int,
                         n_uniforms: int, stream: int) -> tuple[np.ndarray, np.ndarray]:
    """Normal blocks and the uniform doubles that follow them, per path.

    Row i of ``uniforms`` holds the next ``n_uniforms`` values that
    ``Generator.random()`` returns on path ``paths[i]``'s ``stream`` after
    its (n_steps, n_normals) normal block; ``StreamReplay`` replays from
    them the draws that numpy makes from such doubles one at a time.
    """
    normals = np.empty((len(paths), n_steps, n_normals))
    uniforms = np.empty((len(paths), n_uniforms))
    streams = PathStreams(seed, stream)
    for i, path in enumerate(paths):
        gen = streams.at(int(path))
        gen.standard_normal(out=normals[i])
        gen.random(out=uniforms[i])
    return normals, uniforms


class StreamReplay:
    """Step-by-step draws of many paths' streams, replayed for all at once.

    numpy's ``Generator.poisson`` draws a count with mean below 10 by
    multiplying ``random()`` doubles until the product falls to exp(-mean)
    or below (a zero mean draws nothing), and ``choice`` with probabilities
    searches one such double in the normalized cumulative probabilities.
    Each path's doubles are therefore drawn up front, after its
    (n_steps, n_normals) normal block (``normals``), and read through a
    per-path cursor: ``poisson_counts`` gives every row's count and
    ``next_doubles`` the next double of the given rows, in the order a
    generator per path would draw them, so the same draws come out bit for
    bit.  A row that reads
    past its buffer is redrawn from its stream at at least twice the
    length (``refilled``); a row whose mean reaches 10, or is not finite,
    takes a generator positioned at its cursor and draws with it from then
    on (``live``).
    """

    def __init__(self, seed: int, paths, n_steps: int, n_normals: int, width: int,
                 stream: int):
        self.seed, self.stream = int(seed), int(stream)
        self.paths = np.asarray(paths, dtype=np.int64)
        self.n_steps, self.n_normals = n_steps, n_normals
        self.normals, self.uniforms = normal_uniform_block(
            seed, self.paths, n_steps, n_normals, width, stream)
        self.filled = np.full(len(self.paths), width)
        self.cursor = np.zeros(len(self.paths), dtype=np.int64)
        self.refilled = np.zeros(len(self.paths), dtype=bool)
        self.live: dict[int, np.random.Generator] = {}

    def _ensure(self, rows: np.ndarray) -> None:
        """Redraw the rows whose buffer ends at their cursor."""
        short = self.cursor[rows] >= self.filled[rows]
        if not short.any():
            return
        rows = rows[short]
        length = max(2 * int(self.filled[rows].max()), 16)
        if length > self.uniforms.shape[1]:
            wider = np.empty((len(self.uniforms), length))
            wider[:, : self.uniforms.shape[1]] = self.uniforms
            self.uniforms = wider
        _, self.uniforms[rows, :length] = normal_uniform_block(
            self.seed, self.paths[rows], self.n_steps, self.n_normals, length, self.stream)
        self.filled[rows] = length
        self.refilled[rows] = True

    def _next(self, rows: np.ndarray) -> np.ndarray:
        """The next buffered double of each of the (distinct) rows."""
        self._ensure(rows)
        out = self.uniforms[rows, self.cursor[rows]]
        self.cursor[rows] += 1
        return out

    def poisson_counts(self, means: np.ndarray) -> np.ndarray:
        """One Poisson count per row, with the given means."""
        for row in np.flatnonzero(~(means < 10.0)).tolist():
            if row not in self.live:
                gen = path_generator(self.seed, int(self.paths[row]), self.stream)
                gen.standard_normal((self.n_steps, self.n_normals))
                gen.random(int(self.cursor[row]))
                self.live[row] = gen
        counts = np.zeros(len(means), dtype=np.int64)
        positive = means > 0.0
        positive[list(self.live)] = False
        rows = np.flatnonzero(positive)
        # multiplication, one round per double drawn; exp by math.exp on the
        # unique means, as numpy's C code calls libm
        unique, inverse = np.unique(means[rows], return_inverse=True)
        floor = np.array([math.exp(-mean) for mean in unique.tolist()])[inverse]
        product = np.ones(len(rows))
        active = np.arange(len(rows))
        while len(active):
            product[active] *= self._next(rows[active])
            active = active[product[active] > floor[active]]
            counts[rows[active]] += 1
        for row, gen in self.live.items():
            counts[row] = gen.poisson(means[row])
        return counts

    def next_doubles(self, rows: np.ndarray) -> np.ndarray:
        """The next ``random()`` double of each of the (distinct) rows."""
        if not self.live:
            return self._next(rows)
        live = np.isin(rows, list(self.live))
        out = np.empty(len(rows))
        out[~live] = self._next(rows[~live])
        for i in np.flatnonzero(live).tolist():
            out[i] = self.live[int(rows[i])].random()
        return out
