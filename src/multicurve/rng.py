"""Counter-based random number streams.

Every path in a simulation owns a Philox stream keyed by ``(seed, path index,
stream id)``, packed into the 128-bit Philox key as ``seed << 64 | path << 1 |
stream``.  A path's variates therefore depend only on the seed and its own
index, never on how paths are batched or ordered, so results are bit-identical
under any execution decomposition.

Draw layout per path.  Stream 0, the curve driver of the HJM engines and of
stepped jump-free affine models: one block of standard normals of shape
(n_steps, d), then, for the HJM engines, one block of Poisson counts of
shape (n_steps, n_atoms).  Stream 1, the orthogonal jump factor: step by
step a Poisson count and one atom choice per jump.

Rows are counter-addressed instead.  All paths share one Philox, keyed by
the seed on the driver stream (path 0's key; a model draws either rows or
per-path blocks, never both).  Its 4 x 64-bit counter steps its lowest word
first and yields 4 doubles per value, so path i's doubles 4k..4k+3 sit at
counter (i, k, 0, 0) and one ``random`` call per group of 4 columns reads
them for a whole batch (``uniform_rows``; Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11).  A column depends only on (seed,
path, column), whatever the batch or how many columns are read.  The exact
terminal draw of a jump-free Gaussian affine model reads one row of
d + n + 1 normals per path (``normal_rows``).  A stepped affine model with
jumps, of n_steps S and q normals per step, reads S q normals from columns
[0, S q), one double per step for the Poisson count from the S columns that
start at the next multiple of 4, and atom doubles from the columns after
those, one per jump through a per-path cursor.  Counts invert the Poisson
CDF (``poisson_counts``); a mean of 10 or more, or a non-finite one, is
drawn by a Philox under the same key at counter (0, path, step, 1).  Long
blocks keep the per-path streams: there the normals cost more than the
re-key, and ``ndtri`` costs more per value than numpy's ziggurat (5.1 s
against 3.0 s for 100k paths x 365 steps x 2 normals).

``PathStreams`` re-keys one Philox generator per path by setting its state
(counter zero, the path's key, an empty buffer), which draws what a fresh
generator would at a fraction of its cost.  It builds that state once and
re-keys by replacing only the key; the seed and stream are validated once,
on construction, and each re-key checks only the path range.  Block draws
use it path after path: ``driver_increment_block`` (the HJM engines and
stepped jump-free affine models) and ``uniform_block``, which draws a
buffer of a path's ``random()`` doubles.  ``StreamReplay`` replays from
such buffers the step-by-step draws that a generator per path would make,
for all paths of a batch at once: the kernel-mode jumps of ``momentkernel``
on stream 1.  ``path_generator`` builds a fresh generator; only the
replay's fallback for a Poisson mean of 10 or more (or a non-finite one)
uses it, and the tests.

``open_normals`` imports ``scipy.special.ndtri`` on its first call, so
importing this module loads no scipy.
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


# half the spacing of the 2**-53 grid that ``Generator.random`` draws on
_HALF_CELL = 2.0 ** -54
# the largest Poisson mean that ``poisson_counts`` inverts; numpy's own
# multiplication method stops at the same bound
INVERSION_LIMIT = 10.0


def open_normals(doubles: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Standard normals of ``random()`` doubles, by the inverse normal CDF.

    A double j * 2**-53 is read at the midpoint (j + 1/2) * 2**-53 of its
    cell, inside the open interval (0, 1) where ``ndtri`` is finite.  The
    upper half goes through 1 - p, which is exact there, and takes the sign
    of d - 1/2, so j and 2**53 - 1 - j give exact negatives.  The smaller
    of the two cell midpoints equals the upper one exactly when d >= 1/2, so
    their difference carries that sign (+0.0 or negative), and ``out`` may
    be ``doubles`` itself.
    """
    from scipy.special import ndtri
    mirror = np.subtract(1.0, doubles)
    mirror -= _HALF_CELL
    out = np.add(doubles, _HALF_CELL, out=out)
    np.minimum(out, mirror, out=out)
    np.subtract(out, mirror, out=mirror)
    ndtri(out, out=out)
    return np.copysign(out, mirror, out=out)


def uniform_rows(seed: int, path_lo: int, path_hi: int, col_lo: int, col_hi: int) -> np.ndarray:
    """The (n_paths, col_hi - col_lo) doubles at columns [col_lo, col_hi) of
    the rows of paths [path_lo, path_hi).

    Columns 4k..4k+3 of path i are the 4 doubles that a Philox keyed by
    (seed, driver stream) draws next from counter (i, k, 0, 0), so one
    ``random`` call per k reads them for the whole batch and a column
    depends only on (seed, path, column).
    """
    if not 0 <= path_lo <= path_hi <= 1 << 63:
        raise ValueError(f"paths [{path_lo}, {path_hi}) must lie within [0, 2**63)")
    if not 0 <= col_lo <= col_hi:
        raise ValueError(f"columns [{col_lo}, {col_hi}) must be a range of nonnegative columns")
    bitgen = np.random.Philox(key=path_key(seed, 0))
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    rows = np.empty((path_hi - path_lo, col_hi - col_lo))
    block = np.empty((path_hi - path_lo, 4))
    for k in range(col_lo // 4, -(-col_hi // 4)):
        state["state"]["counter"] = (path_lo, k, 0, 0)
        bitgen.state = state
        gen.random(out=block)
        lo, hi = max(4 * k, col_lo), min(4 * k + 4, col_hi)
        rows[:, lo - col_lo:hi - col_lo] = block[:, lo - 4 * k:hi - 4 * k]
    return rows


def normal_rows(seed: int, path_lo: int, path_hi: int, width: int) -> np.ndarray:
    """The (n_paths, width) standard normals of paths [path_lo, path_hi): the
    ``open_normals`` of their rows' first ``width`` columns."""
    rows = uniform_rows(seed, path_lo, path_hi, 0, width)
    return open_normals(rows, out=rows)


def poisson_inversion(doubles: np.ndarray, means: np.ndarray) -> np.ndarray:
    """Poisson counts by inversion: the least k with u < F(k) for each double
    u and finite mean below ``INVERSION_LIMIT``.

    F(k) sums the terms exp(-mean) * mean**j / j! in order, each term the
    previous one times mean / j, with numpy's ``exp`` (``math.exp`` differs in
    the last bit for some means).  A row stops when its sum stops growing,
    so doubles at or above the sum's limit (1 - 2**-53 may be) still end.
    """
    means = np.asarray(means, dtype=float)
    term = np.exp(-means)
    counts = np.zeros(len(means), dtype=np.int64)
    rows = np.flatnonzero(doubles >= term)
    u, mean, term = doubles[rows], means[rows], term[rows]
    total = term
    k = 0
    while len(rows):
        k += 1
        term = term * mean / k
        grown = total + term
        counts[rows] = k
        more = (u >= grown) & (grown > total)
        rows, u, mean, term, total = rows[more], u[more], mean[more], term[more], grown[more]
    return counts


def poisson_counts(seed: int, path_lo: int, step: int, doubles: np.ndarray,
                   means: np.ndarray) -> np.ndarray:
    """One step's Poisson counts of paths path_lo, path_lo + 1, ...

    A mean below ``INVERSION_LIMIT`` inverts the path's count double of the
    step (``poisson_inversion``).  Any other mean, 10 or more or not finite,
    is drawn by ``Generator.poisson`` from a Philox under the rows' key at
    counter (0, path, step, 1); the counter advances its lowest word, so it
    reaches no row's counter and no other path's or step's.  A non-finite
    mean raises ``ValueError`` there.
    """
    means = np.asarray(means, dtype=float)
    hot = ~(means < INVERSION_LIMIT)
    if not hot.any():
        return poisson_inversion(doubles, means)
    counts = poisson_inversion(doubles, np.where(hot, 0.0, means))
    bitgen = np.random.Philox(key=path_key(seed, 0))
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for row in np.flatnonzero(hot).tolist():
        state["state"]["counter"] = (0, path_lo + row, step, 1)
        bitgen.state = state
        counts[row] = gen.poisson(means[row])
    return counts


def uniform_block(seed: int, paths, n_uniforms: int, stream: int) -> np.ndarray:
    """The first ``n_uniforms`` values ``Generator.random()`` returns on each
    of ``paths``' ``stream``, one row per path; ``StreamReplay`` replays from
    them the draws numpy makes from such doubles one at a time."""
    uniforms = np.empty((len(paths), n_uniforms))
    streams = PathStreams(seed, stream)
    for i, path in enumerate(paths):
        streams.at(int(path)).random(out=uniforms[i])
    return uniforms


class StreamReplay:
    """Step-by-step draws of many paths' streams, replayed for all at once.

    numpy's ``Generator.poisson`` draws a count with mean below 10 by
    multiplying ``random()`` doubles until the product falls to exp(-mean)
    or below (a zero mean draws nothing), and ``choice`` with probabilities
    searches one such double in the normalized cumulative probabilities.
    Each path's doubles are therefore drawn up front (``uniform_block``) and
    read through a per-path cursor: ``poisson_counts`` gives every row's
    count and ``next_doubles`` the next double of the given rows, in the
    order a generator per path would draw them, so the same draws come out
    bit for bit.  A row that reads past its buffer is redrawn from its
    stream at at least twice the length (``refilled``); a row whose mean
    reaches 10, or is not finite, takes a generator positioned at its cursor
    and draws with it from then on (``live``).
    """

    def __init__(self, seed: int, paths, width: int, stream: int):
        self.seed, self.stream = int(seed), int(stream)
        self.paths = np.asarray(paths, dtype=np.int64)
        self.uniforms = uniform_block(seed, self.paths, width, stream)
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
        self.uniforms[rows, :length] = uniform_block(self.seed, self.paths[rows], length,
                                                     self.stream)
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
