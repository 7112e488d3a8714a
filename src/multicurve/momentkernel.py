"""Finite-activity jump kernels from exponential-moment targets.

A one-dimensional orthogonal spread factor with jump measure K(dxi) matches
the spot-spread consistency targets when

    integral (e^{u_i xi} - 1) K(dxi) = p_i,   i = 1..m,

with support in [-floor, infinity) so the factor stays nonnegative, plus an
integrability budget

    integral g_{m+1}(xi) K(dxi) = p_{m+1} <= mass_cap,
    g_{m+1}(xi) = max(|xi|, 1) * exp(max(u_m, 1) * |xi|).

Restricted to a finite atom grid this is a linear program in the weights; a
basic optimal solution has at most as many atoms as equality rows (m or m+1),
and solvability is exactly membership of the target vector in the conic hull
of the grid's moment columns.  Targets on the boundary of the *closed* conic
hull (e.g. p_2 exactly (u_2/u_1) p_1, reachable only as xi -> 0) are reported
infeasible on the grid because atoms near 0 are excluded; certificates for
infeasible targets are Farkas dual rays.

The LP backend is HiGHS dual simplex via scipy's ``linprog``, imported by
the first solve; it is deterministic and returns vertex solutions.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import rng as _rng
from ._checks import checked
from .products import EmptyPathSet

__all__ = [
    "MomentTargets",
    "JumpKernel",
    "FeasibilityReport",
    "KernelInfeasible",
    "KernelResidualError",
    "default_atom_grid",
    "moment_columns",
    "feasibility_check",
    "solve_jump_kernel",
    "kernel_moment_residual",
    "KernelFamily",
    "OBJECTIVES",
    "YperpPaths",
    "simulate_yperp",
]

LP_EQUALITY_TOL = 1e-10
RESIDUAL_TOL = 1e-8
WEIGHT_PRUNE_TOL = 1e-14
DEFAULT_GRID_SIZE = 400
EXTRA_MASS_MARGIN = 1.05
# KernelFamily rounds a level down to a multiple of this before solving
FLOOR_BUCKET = 1.0 / 64.0
OBJECTIVES = ("min-total-mass", "min-g-extra-mass")

log = logging.getLogger(__name__)


class KernelInfeasible(RuntimeError):
    """No nonnegative kernel on the grid matches the targets.

    ``certificate`` carries the Farkas dual ray (z with z.G <= 0, z.p > 0)
    when one exists, or None when the failure is the mass cap.
    """

    def __init__(self, message: str, certificate: np.ndarray | None = None):
        super().__init__(message)
        self.certificate = certificate


class KernelResidualError(RuntimeError):
    """LP reported success but moment residuals exceed tolerance after a grid refinement."""


@dataclass(frozen=True)
class MomentTargets:
    """Exponential-moment targets for a one-dimensional jump kernel.

    u: strictly increasing positive exponents (dual-cone loadings).
    p: target values of integral (e^{u_i xi} - 1) K(dxi).
    mass_cap: upper bound H on the g_{m+1} integrability mass.
    floor: current factor level y >= 0; support is restricted to [-floor, inf).
    p_extra: optional pinned value for the g_{m+1} mass; default is
    min(mass_cap, 1.05 * minimal achievable mass).
    A non-finite p, floor, mass_cap or p_extra raises ValueError naming it.
    """

    u: np.ndarray
    p: np.ndarray
    mass_cap: float
    floor: float = 0.0
    p_extra: float | None = None

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        p = np.atleast_1d(checked(self.p, "p"))
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "p", p)
        if len(u) == 0 or len(u) != len(p):
            raise ValueError("u and p must be nonempty and equally long")
        checked(self.floor, "floor", "finite and nonnegative")
        if checked(self.mass_cap, "mass_cap") <= 0:
            raise ValueError("mass_cap must be positive")
        if self.p_extra is not None:
            checked(self.p_extra, "p_extra")
        if not np.all(u > 0) or np.any(np.diff(u) <= 0):
            raise ValueError("u must be strictly increasing and positive")

    @property
    def m(self) -> int:
        return len(self.u)


def _g_extra(xi: np.ndarray, u_max: float) -> np.ndarray:
    return np.maximum(np.abs(xi), 1.0) * np.exp(max(u_max, 1.0) * np.abs(xi))


def default_atom_grid(targets: MomentTargets, size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    """Log-spaced candidate atoms on [-floor, 0) and (0, 5 / u_1], excluding 0.

    A quarter of the budget goes to the negative side when the floor is
    positive.
    """
    xi_max = 5.0 / targets.u[0]
    xi_lo = 1e-4 * xi_max
    n_neg = size // 4 if targets.floor > 0 else 0
    n_pos = size - n_neg
    pos = np.geomspace(xi_lo, xi_max, n_pos)
    if n_neg > 0:
        neg_lo = min(1e-4 * targets.floor, xi_lo)
        neg = -np.geomspace(neg_lo, targets.floor, n_neg)[::-1]
        return np.concatenate([neg, pos])
    return pos


def moment_columns(targets: MomentTargets, atoms: np.ndarray) -> np.ndarray:
    """Matrix G with G[i,j] = g_i(atom_j); last row is g_{m+1}."""
    rows = [np.exp(u_i * atoms) - 1.0 for u_i in targets.u]
    rows.append(_g_extra(atoms, targets.u[-1]))
    return np.vstack(rows)


@dataclass(frozen=True)
class JumpKernel:
    """Solved finite-activity kernel: atoms, weights, and bookkeeping."""

    atoms: np.ndarray
    weights: np.ndarray
    targets: MomentTargets
    residuals: np.ndarray  # achieved minus target, rows 1..m then the extra mass row
    objective: str
    extra_mass: float

    @property
    def total_intensity(self) -> float:
        return float(np.sum(self.weights))

    def exponent(self, u) -> np.ndarray | float:
        """Local exponent Psi(u) = sum_j w_j (e^{u xi_j} - 1)."""
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        out = np.array([float(np.sum(self.weights * (np.exp(ui * self.atoms) - 1.0))) for ui in u_arr])
        return out if np.ndim(u) else float(out[0])


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    weights: np.ndarray | None
    dual_ray: np.ndarray | None
    atoms: np.ndarray


def linprog(*args, **kwargs):
    """scipy's ``linprog``, imported on the first call."""
    from scipy.optimize import linprog
    return linprog(*args, **kwargs)


def _linprog(objective: str, grid_size: int, c, **kwargs):
    """``linprog`` by HiGHS dual simplex, with one DEBUG record per solve."""
    started = time.perf_counter()
    res = linprog(c, method="highs-ds", **kwargs)
    log.debug("kernel lp: objective=%s grid=%d status=%d seconds=%.6f",
              objective, grid_size, res.status, time.perf_counter() - started)
    return res


def _farkas_ray(G_eq: np.ndarray, p_eq: np.ndarray) -> np.ndarray | None:
    """z with z.G <= 0 componentwise and z.p > 0, certifying infeasibility."""
    n_rows = G_eq.shape[0]
    res = _linprog(
        "farkas-ray",
        G_eq.shape[1],
        -p_eq,
        A_ub=G_eq.T,
        b_ub=np.zeros(G_eq.shape[1]),
        bounds=[(-1.0, 1.0)] * n_rows,
    )
    if res.status == 0 and -res.fun > 1e-12:
        return res.x
    return None


def feasibility_check(targets: MomentTargets,
                      grid_size: int = DEFAULT_GRID_SIZE) -> FeasibilityReport:
    """Phase-1 LP: does any nonnegative kernel on the default grid of
    ``grid_size`` atoms match the targets?

    The m exponent rows are equalities; the g_{m+1} mass is capped.  Returns a
    feasible weight vector or a Farkas dual ray over the exponent rows.
    """
    atoms = default_atom_grid(targets, grid_size)
    G = moment_columns(targets, atoms)
    G_eq, g_extra = G[:-1], G[-1]
    res = _linprog(
        "feasibility",
        len(atoms),
        np.zeros(len(atoms)),
        A_eq=G_eq,
        b_eq=targets.p,
        A_ub=g_extra[None, :],
        b_ub=[targets.mass_cap],
        bounds=(0, None),
    )
    if res.status == 0:
        return FeasibilityReport(True, res.x, None, atoms)
    ray = _farkas_ray(G_eq, targets.p)
    return FeasibilityReport(False, None, ray, atoms)


def solve_jump_kernel(targets: MomentTargets, objective: str = "min-total-mass",
                      grid_size: int = DEFAULT_GRID_SIZE) -> JumpKernel:
    """Solve for a kernel matching the targets on the default atom grid.

    objective "min-g-extra-mass": the least g_{m+1} mass subject to the m
    exponent equalities.  objective "min-total-mass": additionally pin the
    g_{m+1} mass to targets.p_extra (default: 1.05x its minimum, capped) and
    seek the least total jump intensity.  Residuals above 1e-8 trigger one
    retry on a grid of twice ``grid_size`` atoms.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    kernel = _solve_on_grid(targets, objective, default_atom_grid(targets, grid_size))
    scale = max(1.0, float(np.max(np.abs(targets.p))))
    if np.max(np.abs(kernel.residuals)) > RESIDUAL_TOL * scale:
        kernel = _solve_on_grid(targets, objective, default_atom_grid(targets, 2 * grid_size))
        if np.max(np.abs(kernel.residuals)) > RESIDUAL_TOL * scale:
            raise KernelResidualError(
                f"kernel residuals {np.max(np.abs(kernel.residuals)):.3e} above tolerance"
            )
    return kernel


def _solve_on_grid(targets: MomentTargets, objective: str, atoms: np.ndarray) -> JumpKernel:
    G = moment_columns(targets, atoms)
    G_eq, g_extra = G[:-1], G[-1]

    # stage 1: minimal integrability mass subject to the exponent equalities
    res_min = _linprog("min-g-extra-mass", len(atoms), g_extra, A_eq=G_eq, b_eq=targets.p,
                       bounds=(0, None))
    if res_min.status != 0:
        ray = _farkas_ray(G_eq, targets.p)
        raise KernelInfeasible(
            f"no nonnegative kernel on the grid matches the exponent targets (LP status {res_min.status})",
            certificate=ray,
        )
    min_mass = float(res_min.fun)
    if min_mass > targets.mass_cap:
        raise KernelInfeasible(
            f"minimal integrability mass {min_mass:.6g} exceeds the cap {targets.mass_cap:.6g}"
        )

    if objective == "min-g-extra-mass":
        w = res_min.x
        extra_mass = min_mass
    else:
        extra_mass = targets.p_extra if targets.p_extra is not None else min(
            targets.mass_cap, EXTRA_MASS_MARGIN * min_mass
        )
        if extra_mass < min_mass - 1e-12 or extra_mass > targets.mass_cap + 1e-12:
            raise KernelInfeasible(
                f"pinned extra mass {extra_mass:.6g} outside achievable range "
                f"[{min_mass:.6g}, {targets.mass_cap:.6g}]"
            )
        res = _linprog(
            "min-total-mass",
            len(atoms),
            np.ones(len(atoms)),
            A_eq=np.vstack([G_eq, g_extra[None, :]]),
            b_eq=np.concatenate([targets.p, [extra_mass]]),
            bounds=(0, None),
        )
        if res.status != 0:
            raise KernelInfeasible(
                f"no kernel matches the targets with pinned extra mass (LP status {res.status})"
            )
        w = res.x

    keep = w > WEIGHT_PRUNE_TOL
    kept_atoms, kept_w = atoms[keep], w[keep]
    achieved = moment_columns(targets, kept_atoms) @ kept_w
    residuals = achieved - np.concatenate([targets.p, [extra_mass]])
    return JumpKernel(kept_atoms, kept_w, replace(targets, p_extra=extra_mass),
                      residuals, objective, float(achieved[-1]))


def kernel_moment_residual(kernel: JumpKernel) -> np.ndarray:
    """Recompute achieved-minus-target moments for a solved kernel."""
    achieved = moment_columns(kernel.targets, kernel.atoms) @ kernel.weights
    target_full = np.concatenate([kernel.targets.p, [kernel.extra_mass]])
    return achieved - target_full


class KernelFamily:
    """State-indexed kernel solver with memoization.

    Kernels are cached by (floor bucket, rounded targets): the floor is
    rounded *down* to a multiple of the bucket width ``FLOOR_BUCKET`` (1/64),
    so a cached kernel's support [-bucket, inf) is always inside the true
    [-y, inf) constraint, and static targets resolve to a single LP solve
    for a whole simulation.  Each kernel is solved on the default grid of
    ``DEFAULT_GRID_SIZE`` (400) atoms.  ``lookups`` counts the calls of
    ``solve_with_exponent`` and ``lp_solves`` those that missed the cache and
    solved a kernel.
    """

    def __init__(self, u: np.ndarray, mass_cap: float, objective: str = "min-total-mass"):
        self.u = np.atleast_1d(np.asarray(u, dtype=float))
        self.mass_cap = float(mass_cap)
        self.objective = objective
        self._cache: dict[tuple, tuple[JumpKernel, np.ndarray]] = {}
        self.lookups = 0
        self.lp_solves = 0

    def _bucket(self, y: float) -> float:
        if y <= 0:
            return 0.0
        return math.floor(y / FLOOR_BUCKET) * FLOOR_BUCKET

    def solve_with_exponent(self, y: float, p: np.ndarray) -> tuple[JumpKernel, np.ndarray]:
        """Kernel plus its exponent evaluated at the family's own u vector."""
        self.lookups += 1
        p = np.atleast_1d(np.asarray(p, dtype=float))
        key = (self._bucket(y), np.round(p, 12).tobytes())
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        self.lp_solves += 1
        targets = MomentTargets(self.u, p, self.mass_cap, floor=self._bucket(y))
        kernel = solve_jump_kernel(targets, self.objective)
        entry = (kernel, np.asarray(kernel.exponent(self.u)))
        self._cache[key] = entry
        return entry

    def solve_rows(self, y: np.ndarray, p: np.ndarray) -> tuple[list, np.ndarray]:
        """Kernels for many rows at once: levels ``y`` (n,), targets ``p`` (n, m).

        Rows are grouped by their cache key (floor bucket and rounded
        targets, bit for bit), and ``solve_with_exponent`` is called once per
        group, in row order, with the group's first row, the row a loop over
        the rows would solve it for.  Returns the ``solve_with_exponent``
        entries and each row's index into them.
        """
        buckets = np.where(y <= 0, 0.0, np.floor(y / FLOOR_BUCKET) * FLOOR_BUCKET)
        keys = np.column_stack([buckets, np.round(p, 12)]).view(np.uint64)
        # a stable sort on the key columns, first column first, keeps each
        # group's rows in row order, so a group's first row starts its run
        by_key = np.lexsort(keys.T[::-1])
        ordered = keys[by_key]
        starts = np.ones(len(by_key), dtype=bool)
        starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        first = by_key[starts]
        order = np.argsort(first)
        entries = [self.solve_with_exponent(float(y[i]), p[i]) for i in first[order].tolist()]
        index = np.empty(len(by_key), dtype=np.intp)
        index[by_key] = np.argsort(order)[np.cumsum(starts) - 1]
        return entries, index


def kernel_jump_step(family: KernelFamily, draws: _rng.JumpRows, y: np.ndarray,
                     targets: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One step of the orthogonal jump factor for every row at once.

    Row i starts the step at level ``y[i]`` with exponent targets
    ``targets[i]``.  Its kernel is solved there, and its jump count is
    Poisson with the kernel's intensity frozen over the step.  Each jump
    draws its size from the current kernel's atoms, as ``Generator.choice``
    with the normalized weights would, and the kernel is re-solved after
    every jump, so that the support floor tracks the post-jump level; a row
    stops early when its re-solved intensity is not positive.  Jumps are
    taken one round at a time across the rows, and only the rows that
    jumped are re-solved.  Row i's count and atom doubles are the next ones
    of its row in ``draws``: the step's count double, inverted at the
    frozen intensity times ``dt``, then one atom double per jump, searched
    in the kernel's cumulative probabilities (``rng.choice_cdf``).  A loop
    over the rows would instead take all of a row's jumps before the next
    row starts; it draws the same numbers and solves the same kernels unless
    one cache key is reached by rows whose targets differ below the key's
    rounding (1e-12), first by an earlier row after a jump and also by a
    later row at the step start.

    ``y`` is updated in place.  Returns the exponents Psi(u) of the kernels
    held over the step, (n, m), and each row's number of jumps.
    """
    entries, index = family.solve_rows(y, targets)
    psi = np.array([entry[1] for entry in entries]).reshape(len(entries), len(family.u))[index]
    lam = np.array([entry[0].total_intensity for entry in entries])[index]
    counts = draws.counts(np.where(lam > 0, lam * dt, 0.0))
    jumps = np.zeros(len(y), dtype=np.int64)
    rows = np.flatnonzero(counts)
    kernels = [entry[0] for entry in entries]
    index = index[rows]
    while len(rows):
        u = draws.atom_doubles(rows)
        for k in np.unique(index).tolist():
            kernel, mine = kernels[k], index == k
            cdf = _rng.choice_cdf(kernel.weights / kernel.total_intensity)
            y[rows[mine]] += kernel.atoms[cdf.searchsorted(u[mine], side="right")]
        jumps[rows] += 1
        entries, index = family.solve_rows(y[rows], targets[rows])
        kernels = [entry[0] for entry in entries]
        lam = np.array([kernel.total_intensity for kernel in kernels])[index]
        more = (jumps[rows] < counts[rows]) & (lam > 0)
        rows, index = rows[more], index[more]
    return psi, jumps


@dataclass
class YperpPaths:
    """Simulated orthogonal jump factor paths plus compensator integrals."""

    times: np.ndarray        # (n_steps + 1,)
    values: np.ndarray       # (n_paths, n_steps + 1)
    compensators: np.ndarray  # (n_paths, m, n_steps + 1): int_0^t Psi_s(u_i) ds
    jump_counts: np.ndarray  # (n_paths,)
    seed: int
    dt: float


def simulate_yperp(family: KernelFamily, targets: Callable[[float], np.ndarray],
                   horizon: float, dt: float, n_paths: int, seed: int) -> YperpPaths:
    """Simulate the orthogonal jump factor from zero under state-frozen step intensities.

    Each step is one ``kernel_jump_step`` over all paths, with the
    deterministic exponent targets ``targets(t)`` at the step start: the
    kernel is solved at (t, y), the jump count is Poisson with the frozen
    total intensity, and each jump draws its size from the current kernel's
    atoms (re-solving after every jump so the support floor tracks the
    post-jump state).  The compensator integral accumulates the frozen
    exponent Psi(u_i) * dt per step.  Path i reads its count and atom doubles from its row on stream 1
    (``rng.JumpRows``), so its numbers do not depend on ``n_paths``.  A horizon
    or dt that is not positive and finite, or a non-finite n_paths, raises
    ValueError naming it, and fewer than one path ``EmptyPathSet``, before any
    draw.
    """
    horizon = checked(horizon, "horizon", "positive and finite")
    dt = checked(dt, "dt", "positive and finite")
    if checked(n_paths, "n_paths") < 1:
        raise EmptyPathSet(f"n_paths must be at least 1, got {n_paths}")
    n_steps = int(round(horizon / dt))
    if abs(n_steps * dt - horizon) > 1e-9:
        raise ValueError("horizon must be an integer number of steps")
    m = len(family.u)
    times = dt * np.arange(n_steps + 1)
    values = np.empty((n_paths, n_steps + 1))
    comps = np.zeros((n_paths, m, n_steps + 1))
    counts = np.zeros(n_paths, dtype=np.int64)

    # one atom double per jump; a jump every other step fits up front
    draws = _rng.JumpRows(seed, 0, n_paths, 0, n_steps, n_steps // 2 + 8, _rng.YPERP_STREAM)
    y = np.zeros(n_paths)
    values[:, 0] = y
    for l in range(n_steps):
        p = np.atleast_1d(np.asarray(targets(times[l]), dtype=float))
        psi, jumps = kernel_jump_step(family, draws, y, np.broadcast_to(p, (n_paths, len(p))), dt)
        comps[:, :, l + 1] = comps[:, :, l] + dt * psi
        counts += jumps
        values[:, l + 1] = y
    return YperpPaths(times, values, comps, counts, seed, dt)
