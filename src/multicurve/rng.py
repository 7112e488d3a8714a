"""Counter-based random number streams.

Every path in a simulation owns a Philox stream keyed by ``(seed, path index,
stream id)``, packed into the 128-bit Philox key as ``seed << 64 | path << 1 |
stream``.  A path's variates therefore depend only on the seed and its own
index, never on how paths are batched or ordered, so results are bit-identical
under any execution decomposition.

Draw layout per path (stream 0, the curve driver): one block of standard
normals of shape (n_steps, d), then one block of Poisson jump counts of shape
(n_steps, n_atoms).  Stream 1 is reserved for orthogonal-jump-part event
sampling, which draws sequentially (counts, then atom choices, per step).

Two ways to reach a path's stream give the same variates.  ``PathStreams``
re-keys one Philox generator per path by setting its state (counter zero, the
path's key, an empty buffer); loops that finish one path's draws before the
next path starts use it: ``driver_increment_block`` (the HJM engines and the
normal block of jump-free affine models), ``normal_uniform_block`` (affine
models with jumps, which replay their step-by-step jump draws from the
buffered uniforms) and ``momentkernel.simulate_yperp``.  ``path_generator``
builds a fresh generator, which costs several times as much; HJM kernel mode
holds one per path because its draws interleave across paths step by step,
and an affine jump path holds one only when its Poisson mean reaches the
range the buffered replay does not cover.
"""

from __future__ import annotations

import numpy as np

DRIVER_STREAM = 0
YPERP_STREAM = 1

_LOW_WORD = (1 << 64) - 1


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

    def at(self, path_index: int) -> np.random.Generator:
        key = path_key(self.seed, path_index, self.stream)
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (key & _LOW_WORD, key >> 64)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
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
                         n_uniforms: int) -> tuple[np.ndarray, np.ndarray]:
    """Normal blocks and the uniform doubles that follow them, per path.

    Row i of ``uniforms`` holds the next ``n_uniforms`` values that
    ``Generator.random()`` returns on path ``paths[i]``'s stream after its
    (n_steps, n_normals) normal block; draws that numpy makes from such
    doubles one at a time (small-mean Poisson counts, ``choice`` with
    probabilities) can be replayed from them in order.
    """
    normals = np.empty((len(paths), n_steps, n_normals))
    uniforms = np.empty((len(paths), n_uniforms))
    streams = PathStreams(seed)
    for i, path in enumerate(paths):
        gen = streams.at(int(path))
        gen.standard_normal(out=normals[i])
        gen.random(out=uniforms[i])
    return normals, uniforms
