"""Counter-based random number streams.

Draws come from Philox (Salmon et al., "Parallel random numbers: as easy as
1, 2, 3", SC'11) under 128-bit keys ``seed << 64 | path << 1 | stream``
(``path_key``).  Whatever the layout, a path's variates depend only on the
seed and its own index, never on how paths are batched or ordered, so
results are bit-identical under any execution decomposition.

Rows are counter-addressed.  All paths of a draw share one Philox keyed by
(seed, 0, stream).  Its 4 x 64-bit counter steps its lowest word first and
yields 4 doubles per value, so path i's doubles 4k..4k+3 sit at counter (i,
k, 0, 0) and one ``random`` call per group of 4 columns reads them for a
whole batch (``uniform_rows``).  A column depends only on (seed, stream,
path, column), whatever the batch or how many columns are read.  Three
draws read rows:

- the exact terminal draw of a jump-free Gaussian affine model: one row of
  d + n + 1 normals per path on stream 0 (``normal_rows``);
- the driver jumps of a stepped affine model or of an HJM model, on stream
  0 from ``DRIVER_JUMP_COLUMN`` (4): the stream-0 row key is path 0's
  per-path key, so column group 0 of path i is block i of path 0's
  per-path stream, which the stepped normals read;
- the kernel-mode orthogonal jump factor of ``momentkernel`` (HJM kernel
  mode and ``simulate_yperp``), on stream 1 from column 0, because one HJM
  model can have both kernel mode and driver jumps.

Every jump draw is one stepwise compound Poisson process (``JumpRows``),
its atoms searched as ``Generator.choice`` does (``choice_cdf``).  A count
of mean 10 or more, or a non-finite one, is drawn by a Philox under the
rows' key at counter (0, path, step, 1), which no row and no per-path
stream reaches.

Per-path streams serve every stepped normal block, of the HJM engines and
of stepped affine models with or without jumps (``driver_increment_block``,
stream 0): there the normals cost more than the re-key, and ``ndtri`` costs
more per value than numpy's ziggurat (5.1 s against 3.0 s for 100k paths x
365 steps x 2 normals).  ``PathStreams`` re-keys one Philox generator per
path by setting its state (counter zero, the path's key, an empty buffer),
which draws what a fresh generator would at a fraction of its cost.
``path_generator`` builds such a fresh generator; only the tests and the
benchmark's tracing call it.

``open_normals`` imports ``scipy.special.ndtri`` on its first call, so
importing this module loads no scipy.
"""

from __future__ import annotations

import math

import numpy as np

from ._checks import checked

DRIVER_STREAM = 0
YPERP_STREAM = 1
DRIVER_JUMP_COLUMN = 4


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
    """One Philox generator re-keyed to each path's driver stream in turn.

    ``at(i)`` returns the shared generator positioned at the start of path
    ``i``'s stream: it draws exactly what ``path_generator(seed, i)`` would,
    and invalidates whatever ``at`` returned before.
    """

    def __init__(self, seed: int):
        self._bitgen = np.random.Philox(key=path_key(seed, 0))
        self._gen = np.random.Generator(self._bitgen)
        self.seed = int(seed)
        # the state of a fresh generator; ``at`` swaps in each path's key
        self._key = {"counter": (0, 0, 0, 0), "key": None}
        self._state = {"bit_generator": "Philox", "state": self._key,
                       "buffer": (0, 0, 0, 0), "buffer_pos": 4,
                       "has_uint32": 0, "uinteger": 0}

    def at(self, path_index: int) -> np.random.Generator:
        path_index = int(path_index)
        if not 0 <= path_index < 1 << 63:
            raise ValueError(f"path_index must lie in [0, 2**63), got {path_index}")
        # low and high words of path_key(seed, path_index)
        self._key["key"] = (path_index << 1, self.seed)
        self._bitgen.state = self._state
        return self._gen


def map_batches(batch, n_paths: int, batch_size: int) -> list:
    """``batch(lo, hi)`` over [0, batch_size), [batch_size, 2 * batch_size),
    ... up to ``n_paths``: the one place the simulators split their paths.
    The results come in path order, and the batches run in it, because HJM
    kernel mode shares one ``KernelFamily`` cache across its batches.  A
    ``batch_size`` below 1 raises ValueError naming it, before any batch."""
    if checked(batch_size, "batch_size") < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    return [batch(lo, min(lo + batch_size, n_paths)) for lo in range(0, n_paths, batch_size)]


def driver_increment_block(seed: int, path_lo: int, path_hi: int, n_steps: int,
                           n_normals: int) -> np.ndarray:
    """The (n_paths, n_steps, n_normals) standard normals of paths [path_lo,
    path_hi), each drawn from the path's own stream 0."""
    normals = np.empty((path_hi - path_lo, n_steps, n_normals))
    streams = PathStreams(seed)
    for i in range(len(normals)):
        streams.at(path_lo + i).standard_normal(out=normals[i])
    return normals


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


def uniform_rows(seed: int, path_lo: int, path_hi: int, col_lo: int, col_hi: int,
                 stream: int = DRIVER_STREAM) -> np.ndarray:
    """The (n_paths, col_hi - col_lo) doubles at columns [col_lo, col_hi) of
    the rows of paths [path_lo, path_hi) on ``stream``, one ``random`` call
    per group of 4 columns for the whole batch."""
    if not 0 <= path_lo <= path_hi <= 1 << 63:
        raise ValueError(f"paths [{path_lo}, {path_hi}) must lie within [0, 2**63)")
    if not 0 <= col_lo <= col_hi:
        raise ValueError(f"columns [{col_lo}, {col_hi}) must be a range of nonnegative columns")
    bitgen = np.random.Philox(key=path_key(seed, 0, stream))
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


def choice_cdf(probabilities: np.ndarray) -> np.ndarray:
    """The cumulative probabilities that ``Generator.choice`` searches: a
    double u picks atom ``cdf.searchsorted(u, side="right")``."""
    cdf = np.cumsum(probabilities)
    cdf /= cdf[-1]
    return cdf


def poisson_counts(seed: int, path_lo: int, step: int, doubles: np.ndarray,
                   means: np.ndarray, stream: int = DRIVER_STREAM) -> np.ndarray:
    """One step's Poisson counts of paths path_lo, path_lo + 1, ...

    A mean below ``INVERSION_LIMIT`` inverts the path's count double of the
    step (``poisson_inversion``).  Any other mean, 10 or more or not finite,
    is drawn by ``Generator.poisson`` at counter (0, path, step, 1), which
    advances its lowest word and so reaches no other path's or step's; a
    non-finite mean raises ``ValueError`` there.
    """
    means = np.asarray(means, dtype=float)
    hot = ~(means < INVERSION_LIMIT)
    if not hot.any():
        return poisson_inversion(doubles, means)
    counts = poisson_inversion(doubles, np.where(hot, 0.0, means))
    bitgen = np.random.Philox(key=path_key(seed, 0, stream))
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for row in np.flatnonzero(hot).tolist():
        state["state"]["counter"] = (0, path_lo + row, step, 1)
        bitgen.state = state
        counts[row] = gen.poisson(means[row])
    return counts


def atom_width(expected: float) -> int:
    """Atom columns a driver-jump ``JumpRows`` reads up front for paths of
    ``expected`` jumps on average; a path that outgrows them refills."""
    return math.ceil(expected + 4.0 * math.sqrt(expected)) + 8


class JumpRows:
    """One batch's stepwise compound Poisson draws, read from rows.

    Paths [lo, hi) read on ``stream`` one double per step for the Poisson
    count, step s at column ``count_col + s`` (``poisson_counts``), and atom
    doubles in the columns after those ``n_steps``, one per jump through a
    per-path cursor (``atom_doubles``); ``width`` atom columns are read up
    front.  A cursor at the end of the atom buffer widens it by reading as
    many further columns (``refilled``); nothing is redrawn.  ``live``
    marks the paths that drew a count of mean 10 or more, or a non-finite
    one, and ``jumps`` counts the jumps that ``rounds`` drew.
    """

    def __init__(self, seed: int, lo: int, hi: int, count_col: int, n_steps: int, width: int,
                 stream: int = DRIVER_STREAM):
        self.seed, self.lo, self.hi, self.stream, self.step, self.jumps = seed, lo, hi, stream, 0, 0
        self.atom_col = count_col + n_steps
        self.count_doubles = uniform_rows(seed, lo, hi, count_col, self.atom_col, stream)
        self.atoms = uniform_rows(seed, lo, hi, self.atom_col, self.atom_col + width, stream)
        self.cursor = np.zeros(hi - lo, dtype=np.int64)
        self.refilled = np.zeros(hi - lo, dtype=bool)
        self.live = np.zeros(hi - lo, dtype=bool)

    def counts(self, means: np.ndarray) -> np.ndarray:
        """The next step's Poisson counts, one per path, with the given means."""
        counts = poisson_counts(self.seed, self.lo, self.step, self.count_doubles[:, self.step],
                                means, self.stream)
        self.live |= ~(means < INVERSION_LIMIT)
        self.step += 1
        return counts

    def atom_doubles(self, rows: np.ndarray) -> np.ndarray:
        """The next atom double of each of the (distinct) rows."""
        cursor = self.cursor[rows]
        width = self.atoms.shape[1]
        if cursor.max(initial=0) >= width:
            self.refilled[rows[cursor >= width]] = True
            col = self.atom_col + width
            wider = uniform_rows(self.seed, self.lo, self.hi, col, col + width, self.stream)
            self.atoms = np.concatenate([self.atoms, wider], axis=1)
        self.cursor[rows] += 1
        return self.atoms[rows, cursor]

    def rounds(self, means: np.ndarray, cdf: np.ndarray):
        """The next step's jumps with the given Poisson means, one round at a
        time: round k yields the rows that draw more than k jumps and the atom
        each picks, its next atom double searched in ``cdf`` (``choice_cdf``)."""
        counts = self.counts(means)
        rows = np.flatnonzero(counts)
        counts = counts[rows]
        self.jumps += int(counts.sum())
        for k in range(int(counts.max(initial=0))):
            r = rows[counts > k]
            yield r, cdf.searchsorted(self.atom_doubles(r), side="right")
