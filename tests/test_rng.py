"""Random streams: key bounds, re-keyed streams, counter-addressed rows,
batch invariance, pins.

Stepped normals, affine and HJM alike, come from per-path streams; driver
jumps, affine and HJM alike, read stream-0 rows from ``DRIVER_COL`` and are
checked against one scalar reference, ``ScalarJumpRows``.

The pinned values at the end were recorded from the per-path generators that
predate ``PathStreams``, except three groups that read counter-addressed
rows and were recorded from them: the ``gauss`` entry of ``PINNED_AFFINE``
(an exact Gaussian affine draw, ``normal_rows``), its ``jump`` entry and the
stepped two-spread pin (stepped affine models with jumps: per-path normals,
and one Poisson double per step and the atom doubles on stream 0 from
``DRIVER_COL``) and the two kernel-mode pins (the orthogonal jump factor's
count and atom doubles on stream 1).  Any change to a seeded stream makes a
pin fail, so a stream change has to be made, and announced, on purpose.
"""

import dataclasses
import functools
import logging
import re
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri
from scipy.stats import poisson

from multicurve import hjm, momentkernel, rng
from multicurve.affine import AffineJumps, AffineModelSpec, simulate_affine
from multicurve.hjm import ExponentialVolatility, LevyHjmModel, LevyTriplet, simulate_hjm
from multicurve.momentkernel import JumpKernel, KernelFamily, simulate_yperp
from multicurve.termstructure import Tenor

T3M = Tenor.parse("3M")
T6M = Tenor.parse("6M")

seeds = st.integers(0, 2 ** 64 - 1)
paths = st.integers(0, 2 ** 63 - 1)


def gaussian_spec():
    """Exact-OU driver with two correlated diffusive spread factors."""
    return AffineModelSpec(
        pos_dims=0, real_dims=1, drift_const=[0.015], drift_linear=[[-0.5]],
        diffusion_const=[[0.01 ** 2]], rate_const=0.0, rate_linear=[1.0],
        n_spread=2, u_vectors=[[1.0, 0.0], [1.0, 0.6]], tenors=(T3M, T6M),
        y_mode="diffusive", y_drift_const=[0.001, 0.0005],
        y_drift_linear=[[0.1], [0.05]],
        y_diff_const=[[0.008 ** 2, 0.3 * 0.008 * 0.005], [0.3 * 0.008 * 0.005, 0.005 ** 2]],
        x0=[0.02], y0=[0.004, 0.001])


def cir_spec():
    """Euler square-root driver; the spread noise scales with the driver."""
    return AffineModelSpec(
        pos_dims=1, real_dims=0, drift_const=[0.8 * 0.04], drift_linear=[[-0.8]],
        diffusion_const=[[0.0]], diffusion_linear=[[[0.25 ** 2]]], rate_const=0.0,
        rate_linear=[1.0], n_spread=1, u_vectors=[[1.0]], tenors=(T6M,),
        y_mode="diffusive", y_drift_const=[0.001], y_drift_linear=[[0.1]],
        y_diff_const=[[0.004 ** 2]], y_diff_linear=[[[0.05 ** 2]]], x0=[0.03], y0=[0.002])


def jump_spec():
    """Gaussian driver with compound-Poisson jumps in X and Y."""
    return AffineModelSpec(
        pos_dims=0, real_dims=1, drift_const=[0.015], drift_linear=[[-0.5]],
        diffusion_const=[[0.01 ** 2]], rate_const=0.0, rate_linear=[1.0],
        n_spread=1, u_vectors=[[1.0]], tenors=(T6M,), y_mode="diffusive",
        y_drift_const=[0.001], y_drift_linear=[[0.1]], y_diff_const=[[0.008 ** 2]],
        jumps=AffineJumps(atoms_x=[[0.01], [-0.008]], probabilities=[0.6, 0.4],
                          intensity_const=6.0, atoms_y=[[0.002], [0.0]]),
        x0=[0.02], y0=[0.004])


def cir_jump_spec(intensity_const=0.5, intensity_linear=40.0, kappa=0.8, theta=0.04,
                  sigma=0.25, x0=0.03):
    """Euler square-root driver whose intensity loads on it; three atoms in X and Y."""
    return AffineModelSpec(
        pos_dims=1, real_dims=0, drift_const=[kappa * theta], drift_linear=[[-kappa]],
        diffusion_const=[[0.0]], diffusion_linear=[[[sigma ** 2]]], rate_const=0.0,
        rate_linear=[1.0], n_spread=2, u_vectors=[[1.0, 0.0], [1.0, 0.5]], tenors=(T3M, T6M),
        y_mode="diffusive", y_drift_const=[0.001, 0.0], y_drift_linear=[[0.1], [0.05]],
        y_diff_const=[[0.004 ** 2, 0.0], [0.0, 0.003 ** 2]],
        y_diff_linear=[[[0.05 ** 2, 0.0], [0.0, 0.01 ** 2]]],
        jumps=AffineJumps(atoms_x=[[0.02], [0.05], [0.0]], probabilities=[0.5, 0.3, 0.2],
                          intensity_const=intensity_const,
                          intensity_linear=[intensity_linear],
                          atoms_y=[[0.001, 0.0], [0.0, 0.002], [-0.001, 0.001]]),
        x0=[x0], y0=[0.002, 0.001])


def hot_spec():
    """Constant intensity 150: a step of 0.1 has Poisson mean 15."""
    spec = jump_spec()
    spec.jumps.intensity_const = 150.0
    return spec


def rising_spec():
    """Intensity 15 * X with X started at 0 and reverting to 1: the draws
    outgrow the buffer sized at x0, and steps of 0.5 reach means of 10."""
    return cir_jump_spec(intensity_const=0.0, intensity_linear=15.0, kappa=2.0, theta=1.0,
                         sigma=0.5, x0=0.0)


SPECS = {"gauss": gaussian_spec(), "cir": cir_spec(), "jump": jump_spec()}


def kernel_hjm_model(spread_scale=0.0):
    """HJM kernel mode with spread levels near a 1:2 ratio, so that a few
    jumps land in a short run; a positive ``spread_scale`` moves the spread
    short ends, and with them the kernel targets, path by path."""
    return LevyHjmModel(
        driver=LevyTriplet(drift=[0.0, 0.0], covariance=np.diag([1.0, 0.0])),
        n_curve_factors=1, ois_vol=ExponentialVolatility.flat(0.01),
        spread_vols=[ExponentialVolatility.flat(spread_scale) for _ in range(2)],
        u_vectors=[[0.5], [1.0]], tenors=[T3M, T6M], forward_curve=0.02,
        forward_spread_curves=[0.01, 0.0202], spread_factor_mode="kernel")


# ---------------------------------------------------------------------------
# key bounds


class TestPathKey:
    def test_packs_seed_path_and_stream(self):
        assert rng.path_key(3, 5, 1) == (3 << 64) | (5 << 1) | 1
        assert rng.path_key(2 ** 64 - 1, 2 ** 63 - 1, 1) == 2 ** 128 - 1

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70])
    def test_seed_bound(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*64\)"):
            rng.path_key(seed, 0)
        with pytest.raises(ValueError, match="seed"):
            rng.path_generator(seed, 0)
        with pytest.raises(ValueError, match="seed"):
            rng.PathStreams(seed)

    @pytest.mark.parametrize("path", [-1, 2 ** 63, 2 ** 64])
    def test_path_bound(self, path):
        with pytest.raises(ValueError, match=r"path_index must lie in \[0, 2\*\*63\)"):
            rng.path_key(0, path)
        with pytest.raises(ValueError, match="path_index"):
            rng.PathStreams(0).at(path)

    def test_path_bound_prevents_aliasing(self):
        # seed 0, path 2**63 would otherwise share the key of seed 1, path 0
        assert rng.path_key(1, 0) == 1 << 64
        with pytest.raises(ValueError):
            rng.path_key(0, 2 ** 63)

    @pytest.mark.parametrize("stream", [-1, 2, 3])
    def test_stream_bound(self, stream):
        with pytest.raises(ValueError, match="stream must be 0 or 1"):
            rng.path_key(0, 0, stream)
        with pytest.raises(ValueError, match="stream"):
            rng.uniform_rows(0, 0, 2, 0, 4, stream)


# ---------------------------------------------------------------------------
# re-keyed streams against fresh generators


def mixed_draws(gen, n_normals):
    """Draws of every kind the simulators use; ends with a 32-bit draw that
    leaves half a buffered word behind."""
    return [
        gen.standard_normal(n_normals),
        gen.poisson(lam=[0.2, 3.0], size=(2, 2)),
        gen.choice(3, p=[0.5, 0.3, 0.2]),
        gen.integers(0, 2 ** 31, dtype=np.uint32),
    ]


@given(seed=seeds, indices=st.lists(paths | st.integers(0, 64), min_size=1, max_size=6),
       n_normals=st.integers(0, 9))
def test_rekeyed_stream_matches_fresh_generator(seed, indices, n_normals):
    shared = rng.PathStreams(seed)
    for path in indices:
        got = mixed_draws(shared.at(path), n_normals)
        want = mixed_draws(rng.path_generator(seed, path), n_normals)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@given(seed=seeds, lo=st.integers(0, 2 ** 40), n_paths=st.integers(1, 8),
       cut=st.integers(0, 8))
def test_driver_block_independent_of_path_split(seed, lo, n_paths, cut):
    cut = min(cut, n_paths)
    normals = rng.driver_increment_block(seed, lo, lo + n_paths, 3, 2)
    head = rng.driver_increment_block(seed, lo, lo + cut, 3, 2)
    tail = rng.driver_increment_block(seed, lo + cut, lo + n_paths, 3, 2)
    assert np.array_equal(normals, np.concatenate([head, tail]))
    # each row is its path's own stream
    gen = rng.path_generator(seed, lo + n_paths - 1)
    assert np.array_equal(normals[-1], gen.standard_normal((3, 2)))


# ---------------------------------------------------------------------------
# counter-addressed normal rows


@given(seed=seeds, lo=st.integers(0, 2 ** 63 - 9), n_paths=st.integers(0, 8),
       cut=st.integers(0, 8), width=st.integers(1, 9))
def test_normal_rows_independent_of_split_and_width(seed, lo, n_paths, cut, width):
    cut = min(cut, n_paths)
    rows = rng.normal_rows(seed, lo, lo + n_paths, width)
    assert rows.shape == (n_paths, width)
    assert np.all(np.isfinite(rows))
    head = rng.normal_rows(seed, lo, lo + cut, width)
    tail = rng.normal_rows(seed, lo + cut, lo + n_paths, width)
    assert np.array_equal(rows, np.concatenate([head, tail]))
    for i in range(n_paths):
        assert np.array_equal(rows[i], rng.normal_rows(seed, lo + i, lo + i + 1, width)[0])
    for narrower in range(width):
        assert np.array_equal(rows[:, :narrower], rng.normal_rows(seed, lo, lo + n_paths, narrower))


def mirror_normals(doubles):
    """The mirror form of ``open_normals``: the upper half through a masked
    1 - p and a masked negation."""
    upper = doubles >= 0.5
    p = np.where(upper, (1.0 - doubles) - 2.0 ** -54, doubles + 2.0 ** -54)
    out = ndtri(p)
    np.negative(out, out=out, where=upper)
    return out


def test_open_normals_matches_the_mirror_form_bit_for_bit():
    edges = [0.0, 2.0 ** -53, 0.5 - 2.0 ** -53, 0.5, 0.5 + 2.0 ** -53, 1.0 - 2.0 ** -53]
    doubles = np.concatenate([np.random.default_rng(11).random(100_000), edges])
    got, want = rng.open_normals(doubles), mirror_normals(doubles)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_open_normals_keeps_the_extreme_doubles_finite_and_symmetric():
    low, high = rng.open_normals(np.array([0.0, 1.0 - 2.0 ** -53]))
    assert np.isfinite(low) and np.isfinite(high)
    assert low == -high < -8


@pytest.mark.parametrize("lo, hi", [(-1, 2), (3, 2), (0, 2 ** 63 + 1)])
def test_normal_rows_path_bounds(lo, hi):
    with pytest.raises(ValueError, match="paths"):
        rng.normal_rows(0, lo, hi, 3)


@given(seed=seeds, lo=st.integers(0, 2 ** 40), n_paths=st.integers(0, 5),
       col_lo=st.integers(0, 11), span=st.integers(0, 11))
def test_uniform_rows_read_columns_by_address(seed, lo, n_paths, col_lo, span):
    whole = rng.uniform_rows(seed, lo, lo + n_paths, 0, col_lo + span)
    part = rng.uniform_rows(seed, lo, lo + n_paths, col_lo, col_lo + span)
    assert part.shape == (n_paths, span)
    assert np.array_equal(part, whole[:, col_lo:])
    assert np.array_equal(rng.normal_rows(seed, lo, lo + n_paths, col_lo + span),
                          rng.open_normals(whole))
    # stream 1 reads other rows under its own key
    ones = rng.uniform_rows(seed, lo, lo + n_paths, col_lo, col_lo + span, rng.YPERP_STREAM)
    for i in range(n_paths):
        row = ScalarRow(seed, lo + i, rng.YPERP_STREAM)
        assert ones[i].tolist() == [row[c] for c in range(col_lo, col_lo + span)]
    if span and n_paths:
        assert not np.array_equal(ones, part)


def test_uniform_rows_column_bounds():
    with pytest.raises(ValueError, match="columns"):
        rng.uniform_rows(0, 0, 2, 3, 2)


# ---------------------------------------------------------------------------
# Poisson counts by inversion


@given(mean=st.floats(0.0, 10.0, exclude_max=True),
       u=st.floats(0.0, 1.0, exclude_max=True) | st.just(1.0 - 2.0 ** -53))
@example(mean=9.999999999999998, u=1.0 - 2.0 ** -53)
@example(mean=0.0, u=1.0 - 2.0 ** -53)
@example(mean=5e-324, u=0.0)
def test_poisson_inversion_brackets_the_double(mean, u):
    k = int(rng.poisson_inversion(np.array([u]), np.array([mean]))[0])
    assert poisson.cdf(k - 1, mean) - 1e-12 <= u < poisson.cdf(k, mean) + 1e-12


def philox_at(seed, counter, stream=rng.DRIVER_STREAM):
    """A generator under the rows' key on ``stream``, positioned at ``counter``."""
    bitgen = np.random.Philox(key=rng.path_key(seed, 0, stream))
    state = bitgen.state
    state["state"]["counter"] = counter
    bitgen.state = state
    return np.random.Generator(bitgen)


def test_poisson_counts_above_the_inversion_limit():
    # means of 10 or more, or not finite, draw from the fallback counter
    doubles, means = np.array([0.3, 0.3, 0.9]), np.array([0.5, 12.0, 40.0])
    counts = rng.poisson_counts(8, 5, 2, doubles, means)
    for row in (1, 2):
        assert counts[row] == philox_at(8, (0, 5 + row, 2, 1)).poisson(means[row])
    assert counts[0] == rng.poisson_inversion(doubles[:1], means[:1])[0]
    counts = rng.poisson_counts(8, 5, 2, doubles, means, rng.YPERP_STREAM)
    for row in (1, 2):
        assert counts[row] == philox_at(8, (0, 5 + row, 2, 1), rng.YPERP_STREAM).poisson(means[row])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            rng.poisson_counts(8, 5, 2, doubles, np.array([0.5, bad, 1.0]))


@settings(max_examples=30)
@given(name=st.sampled_from(sorted(SPECS)), n_paths=st.integers(1, 9),
       batch_size=st.integers(1, 9), seed=st.integers(0, 2 ** 64 - 1))
def test_simulate_affine_independent_of_batch_size(name, n_paths, batch_size, seed):
    spec = SPECS[name]
    whole = simulate_affine(spec, 0.3, 0.1, n_paths, seed, [0.3])
    split = simulate_affine(spec, 0.3, 0.1, n_paths, seed, [0.3], batch_size=batch_size)
    assert np.array_equal(whole.numeraire, split.numeraire)
    assert np.array_equal(whole.bonds, split.bonds)
    for tenor in spec.tenors:
        assert np.array_equal(whole.spreads[tenor], split.spreads[tenor])


# ---------------------------------------------------------------------------
# driver jump draws read from stream-0 rows against one scalar reference of
# the row layout: affine jumps here, HJM driver jumps below

# the first stream-0 column of the driver jumps, stated apart from the package
DRIVER_COL = 4


class ScalarRow:
    """One path's row on ``stream``, read column by column from a Philox
    positioned at the path's row counter for each group of 4 columns."""

    def __init__(self, seed, path, stream=rng.DRIVER_STREAM):
        self.seed, self.path, self.stream, self.blocks = seed, path, stream, {}

    def __getitem__(self, col):
        k = col // 4
        if k not in self.blocks:
            self.blocks[k] = philox_at(self.seed, (self.path, k, 0, 0), self.stream).random(4)
        return float(self.blocks[k][col % 4])


def scalar_poisson(seed, path, step, u, mean, stream=rng.DRIVER_STREAM):
    """The least k with u < F(k), the sum stopping when it stops growing;
    a mean of 10 or more draws from counter (0, path, step, 1)."""
    if not mean < 10.0:
        return int(philox_at(seed, (0, path, step, 1), stream).poisson(mean))
    term = float(np.exp(-mean))
    total, k = term, 0
    while u >= total:
        k += 1
        term = term * mean / k
        if total + term == total:
            break
        total = total + term
    return k


def scalar_choice(probabilities, u):
    """The atom ``Generator.choice`` picks for the double u."""
    cdf = probabilities.cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(u, side="right"))


class ScalarJumpRows:
    """Reference ``rng.JumpRows`` of a driver-jump draw: a loop over the
    paths at every step, each reading its stream-0 row column by column from
    ``DRIVER_COL``: the step's count double at DRIVER_COL + step, inverted,
    then one atom double per jump from column DRIVER_COL + n_steps, searched
    in ``probabilities`` as ``Generator.choice`` does.  ``rounds`` yields
    one (path row, atom) pair per jump, in draw order; the cdf it is given
    goes unread.  Bind ``probabilities`` (``functools.partial``) to stand in
    for ``rng.JumpRows``."""

    def __init__(self, probabilities, seed, lo, hi, count_col, n_steps, width,
                 stream=rng.DRIVER_STREAM):
        assert (count_col, stream) == (DRIVER_COL, rng.DRIVER_STREAM)
        self.probabilities, self.seed, self.lo, self.jumps, self.step = probabilities, seed, lo, 0, 0
        self.rows = [ScalarRow(seed, p) for p in range(lo, hi)]
        self.cursor = [DRIVER_COL + n_steps] * (hi - lo)
        self.refilled = self.live = np.zeros(hi - lo, dtype=bool)

    def rounds(self, means, cdf):
        for i, row in enumerate(self.rows):
            u = row[DRIVER_COL + self.step]
            for _ in range(scalar_poisson(self.seed, self.lo + i, self.step, u, means[i])):
                atom = scalar_choice(self.probabilities, row[self.cursor[i]])
                self.cursor[i] += 1
                self.jumps += 1
                yield i, atom
        self.step += 1


class _Records(logging.Handler):
    def __init__(self, prefix):
        super().__init__(logging.DEBUG)
        self.prefix, self.batches = prefix, []

    def emit(self, record):
        message = record.getMessage()
        if message.startswith(self.prefix):
            self.batches.append({k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", message)})


@contextmanager
def batch_counters(module="affine"):
    """Collect the per-batch counters ``simulate_affine`` (or, for module
    "hjm", ``simulate_hjm``) logs at DEBUG."""
    logger, handler = logging.getLogger(f"multicurve.{module}"), _Records(f"{module} batch:")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        yield handler.batches
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def replayed_and_scalar(spec, horizon, dt, n_paths, seed, batch_size):
    """Both simulations with their summed batch counters; asserts bit identity."""
    args = (spec, horizon, dt, n_paths, seed, [horizon, horizon + 1.0])
    with batch_counters() as batches:
        got = simulate_affine(*args, batch_size=batch_size)
    scalar = functools.partial(ScalarJumpRows, spec.jumps.probabilities)
    with mock.patch.object(rng, "JumpRows", scalar), batch_counters() as reference:
        want = simulate_affine(*args, batch_size=batch_size)
    assert np.array_equal(got.numeraire, want.numeraire)
    assert np.array_equal(got.bonds, want.bonds)
    for tenor in spec.tenors:
        assert np.array_equal(got.spreads[tenor], want.spreads[tenor])
    counters = {k: sum(b[k] for b in batches) for k in batches[0]}
    assert counters["jumps"] == sum(b["jumps"] for b in reference)
    return counters


JUMP_SPECS = {"constant": jump_spec(), "state": cir_jump_spec(), "hot": hot_spec(),
              "rising": rising_spec()}
JUMP_GRIDS = {"constant": (0.5, 0.1), "state": (1.0, 0.05), "hot": (0.3, 0.1),
              "rising": (2.0, 0.5)}


@settings(max_examples=30)
@given(name=st.sampled_from(sorted(JUMP_SPECS)), n_paths=st.integers(1, 12),
       batch_size=st.integers(1, 12), seed=st.integers(0, 2 ** 64 - 1))
def test_jump_replay_matches_generator_per_path(name, n_paths, batch_size, seed):
    horizon, dt = JUMP_GRIDS[name]
    replayed_and_scalar(JUMP_SPECS[name], horizon, dt, n_paths, seed, batch_size)


@pytest.mark.parametrize("name, branch", [("hot", "live_paths"), ("rising", "refilled_paths"),
                                          ("rising", "live_paths")])
def test_jump_replay_fallbacks_run_and_match(name, branch):
    horizon, dt = JUMP_GRIDS[name]
    counters = replayed_and_scalar(JUMP_SPECS[name], horizon, dt, 60, 2024, 25)
    assert counters[branch] > 0


# ---------------------------------------------------------------------------
# kernel-mode jump steps read from stream-1 rows against a scalar reference
# of the row layout


class FakeKernels:
    """Stand-in for ``solve_jump_kernel`` that solves no LP: three atoms, one
    of them reaching below the support floor; the intensity grows with the
    targets and the floor, and is zero from ``drop_floor`` on."""

    def __init__(self, intensity, drop_floor=np.inf):
        self.intensity, self.drop_floor = intensity, drop_floor

    def __call__(self, targets, objective, grid_size=None):
        lam = self.intensity * (1.0 + abs(float(targets.p.sum()))) * (1.0 + targets.floor)
        if targets.floor >= self.drop_floor:
            lam = 0.0
        atoms = np.array([0.02, 0.07 + 0.01 * targets.floor, -0.5 * targets.floor])
        weights = lam * np.array([0.5, 0.3, 0.2])
        return JumpKernel(atoms, weights, targets, np.zeros(targets.m + 1), objective, 0.0)


class ScalarKernelSteps:
    """Reference kernel-mode steps in ``hjm._kernel_step``'s interface: a loop
    over each batch's paths, each reading its stream-1 row column by column,
    the step's count double from columns [0, n_steps) and one atom double
    per jump from column n_steps on.  ``stopped`` counts the jumps left
    undrawn because a re-solved intensity was not positive."""

    def __init__(self, seed, n_steps):
        self.seed, self.n_steps, self.stopped = seed, n_steps, 0
        self.draws, self.rows, self.lo = None, [], 0

    def __call__(self, family, draws, targets, y, dt, psi_hat):
        if draws is not self.draws:  # a new batch, after the previous one
            self.draws, self.lo, self.step = draws, self.lo + len(self.rows), 0
            self.rows = [ScalarRow(self.seed, self.lo + p, rng.YPERP_STREAM) for p in range(len(y))]
            self.cursor = [self.n_steps] * len(y)
        held = np.empty_like(targets)
        jumps = np.zeros(len(y), dtype=np.int64)
        for p, row in enumerate(self.rows):
            kernel, psi = family.solve_with_exponent(float(y[p, 0]), targets[p])
            lam = kernel.total_intensity
            held[p] = psi + psi_hat
            n_jumps = scalar_poisson(self.seed, self.lo + p, self.step, row[self.step],
                                     lam * dt if lam > 0 else 0.0, rng.YPERP_STREAM)
            for k in range(n_jumps):
                j = scalar_choice(kernel.weights / lam, row[self.cursor[p]])
                self.cursor[p] += 1
                y[p, 0] += float(kernel.atoms[j])
                jumps[p] += 1
                kernel, _ = family.solve_with_exponent(float(y[p, 0]), targets[p])
                lam = kernel.total_intensity
                if lam <= 0:
                    self.stopped += n_jumps - k - 1
                    break
        self.step += 1
        return held, jumps


def scalar_yperp(family, targets, horizon, dt, n_paths, seed):
    """Reference ``simulate_yperp``: the loop over paths, each reading its
    stream-1 row column by column, with ``targets`` called at every solve."""
    n_steps = int(round(horizon / dt))
    m = len(family.u)
    times = dt * np.arange(n_steps + 1)
    values = np.empty((n_paths, n_steps + 1))
    comps = np.zeros((n_paths, m, n_steps + 1))
    counts = np.zeros(n_paths, dtype=np.int64)
    for ipath in range(n_paths):
        row, cursor = ScalarRow(seed, ipath, rng.YPERP_STREAM), n_steps
        y = 0.0
        values[ipath, 0] = y
        for l in range(n_steps):
            kernel = family.solve_with_exponent(y, targets(times[l]))[0]
            lam = kernel.total_intensity
            comps[ipath, :, l + 1] = comps[ipath, :, l] + dt * np.asarray(kernel.exponent(family.u))
            n_jumps = scalar_poisson(seed, ipath, l, row[l], lam * dt if lam > 0 else 0.0,
                                     rng.YPERP_STREAM)
            for _ in range(n_jumps):
                y += float(kernel.atoms[scalar_choice(kernel.weights / lam, row[cursor])])
                cursor += 1
                counts[ipath] += 1
                kernel = family.solve_with_exponent(y, targets(times[l]))[0]
                lam = kernel.total_intensity
                if lam <= 0:
                    break
            values[ipath, l + 1] = y
    return values, comps, counts


def recording(step):
    """``step`` with each call's held exponents, factor levels and jump counts kept."""
    calls = []

    def wrapper(family, draws, targets, y, dt, psi_hat):
        held, jumps = step(family, draws, targets, y, dt, psi_hat)
        calls.append((held.copy(), y.copy(), jumps.copy()))
        return held, jumps

    return wrapper, calls


# (HJM spread scale, FakeKernels arguments or None for the LP, horizon, dt)
KERNEL_HJM = {
    "lp": (0.0, None, 0.5, 1 / 8),
    "moving": (1e-3, (1.5,), 0.5, 1 / 8),
    "drop": (1e-3, (4.0, 1 / 64), 0.5, 1 / 8),
    "refill": (1e-3, (14.0,), 1.0, 1 / 8),
    "live": (1e-3, (60.0,), 0.5, 1 / 8),
}


@contextmanager
def kernels(fake):
    if fake is None:
        yield
    else:
        with mock.patch.object(momentkernel, "solve_jump_kernel", FakeKernels(*fake)):
            yield


def kernel_hjm_and_scalar(name, n_paths, seed, batch_size):
    """Kernel-mode HJM with the vectorized step and with the scalar reference;
    asserts bit identity of every step and snapshot, returns the summed
    batch counters and the reference."""
    scale, fake, horizon, dt = KERNEL_HJM[name]
    args = (kernel_hjm_model(scale), horizon, dt, n_paths, seed, [horizon, horizon + 0.5])
    scalar = ScalarKernelSteps(seed, round(horizon / dt))
    step, got = recording(hjm._kernel_step)
    with kernels(fake):
        with mock.patch.object(hjm, "_kernel_step", step), batch_counters("hjm") as batches:
            res = simulate_hjm(*args, batch_size=batch_size)
        step, want = recording(scalar)
        with mock.patch.object(hjm, "_kernel_step", step):
            ref = simulate_hjm(*args, batch_size=batch_size)
    assert len(got) == len(want) == round(horizon / dt) * -(-n_paths // batch_size)
    for a, b in zip(got, want):
        for x, z in zip(a, b):
            assert np.array_equal(x, z)
    paths, ref_paths = res.pathset(horizon), ref.pathset(horizon)
    assert np.array_equal(paths.numeraire, ref_paths.numeraire)
    assert np.array_equal(paths.bonds, ref_paths.bonds)
    for tenor in (T3M, T6M):
        assert np.array_equal(paths.spreads[tenor], ref_paths.spreads[tenor])
    counters = {k: sum(b[k] for b in batches) for k in batches[0]}
    assert counters["kernel_jumps"] == sum(int(jumps.sum()) for _, _, jumps in got)
    return counters, scalar


@settings(max_examples=25)
@given(name=st.sampled_from(sorted(KERNEL_HJM)), n_paths=st.integers(1, 10),
       batch_size=st.integers(1, 10), seed=st.integers(0, 2 ** 64 - 1))
def test_kernel_step_matches_scalar_rows(name, n_paths, batch_size, seed):
    kernel_hjm_and_scalar(name, n_paths, seed, batch_size)


@pytest.mark.parametrize("name, branch", [("refill", "refilled_paths"), ("live", "live_paths")])
def test_kernel_step_fallbacks_run_and_match(name, branch):
    counters, _ = kernel_hjm_and_scalar(name, 30, 2024, 12)
    assert counters[branch] > 0


def test_kernel_step_stops_when_intensity_vanishes():
    _, scalar = kernel_hjm_and_scalar("drop", 30, 2024, 12)
    assert scalar.stopped > 0


# (targets at time t, FakeKernels arguments or None for the LP, mass cap, horizon, dt)
KERNEL_YPERP = {
    "lp": (lambda t: np.array([4.0, 12.0]), None, 50.0, 0.5, 1 / 26),
    "moving": (lambda t: np.array([0.5 + t, 1.5 + 2.0 * t]), (0.4,), 50.0, 1.0, 1 / 8),
    "drop": (lambda t: np.array([0.5, 1.5]), (1.0, 1 / 64), 50.0, 1.0, 1 / 8),
    "refill": (lambda t: np.array([0.5, 1.5]), (4.0,), 50.0, 1.0, 1 / 8),
    "live": (lambda t: np.array([0.5, 1.5]), (20.0,), 50.0, 1.0, 1 / 4),
}


def yperp_and_scalar(name, n_paths, seed):
    targets, fake, cap, horizon, dt = KERNEL_YPERP[name]
    with kernels(fake):
        got = simulate_yperp(KernelFamily([0.5, 1.0], mass_cap=cap), targets,
                             horizon, dt, n_paths, seed)
        values, comps, counts = scalar_yperp(KernelFamily([0.5, 1.0], mass_cap=cap), targets,
                                             horizon, dt, n_paths, seed)
    assert np.array_equal(got.values, values)
    assert np.array_equal(got.compensators, comps)
    assert np.array_equal(got.jump_counts, counts)


@settings(max_examples=20)
@given(name=st.sampled_from(sorted(KERNEL_YPERP)), n_paths=st.integers(1, 12),
       seed=st.integers(0, 2 ** 64 - 1))
def test_simulate_yperp_matches_scalar_rows(name, n_paths, seed):
    yperp_and_scalar(name, n_paths, seed)


@settings(max_examples=20)
@given(name=st.sampled_from(sorted(KERNEL_YPERP)), n_paths=st.integers(1, 12),
       head=st.integers(1, 12), seed=st.integers(0, 2 ** 64 - 1))
def test_simulate_yperp_is_prefix_invariant(name, n_paths, head, seed):
    # the first k paths of an N-path run are a k-path run, bit for bit
    head = min(head, n_paths)
    targets, fake, cap, horizon, dt = KERNEL_YPERP[name]
    with kernels(fake):
        whole, part = (simulate_yperp(KernelFamily([0.5, 1.0], mass_cap=cap), targets,
                                      horizon, dt, n, seed) for n in (n_paths, head))
    assert np.array_equal(whole.values[:head], part.values)
    assert np.array_equal(whole.compensators[:head], part.compensators)
    assert np.array_equal(whole.jump_counts[:head], part.jump_counts)


@contextmanager
def built_jump_rows():
    """The ``rng.JumpRows`` built inside the block, in order."""
    built = []

    class Recorded(rng.JumpRows):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with mock.patch.object(rng, "JumpRows", Recorded):
        yield built


@pytest.mark.parametrize("name, refilled, live", [
    ("lp", False, False), ("moving", False, False), ("refill", True, False),
    ("live", True, True)])
def test_simulate_yperp_draw_branches(name, refilled, live):
    # the atom buffer widens only when a path outgrows it, and a path is live
    # only after a Poisson mean of 10 or more
    with built_jump_rows() as built:
        yperp_and_scalar(name, 20, 7)
    [draws] = built
    assert draws.refilled.any() == refilled
    assert draws.live.any() == live


def test_kernel_mode_builds_no_generator():
    with mock.patch.object(rng, "path_generator", wraps=rng.path_generator) as made:
        simulate_hjm(kernel_hjm_model(), 0.5, 1 / 8, 30, 95, [0.5, 1.0], batch_size=12)
        simulate_yperp(KernelFamily([0.5, 1.0], mass_cap=50.0), lambda t: np.array([4.0, 12.0]),
                       0.5, 1 / 26, 30, 9)
    assert made.call_count == 0


# ---------------------------------------------------------------------------
# HJM driver jumps read from stream-0 rows against a scalar reference of the
# row layout

INCREMENTS = hjm._increments


def driver_jump_model(sizes, intensities):
    """One curve and one spread factor, correlated, with the given driver atoms."""
    return LevyHjmModel(
        driver=LevyTriplet(drift=[0.001, 0.0], covariance=[[1.0, 0.1], [0.1, 0.04]],
                           jump_sizes=sizes, jump_intensities=intensities),
        n_curve_factors=1, ois_vol=ExponentialVolatility.flat(0.01),
        spread_vols=[ExponentialVolatility.flat(0.004)], u_vectors=[[1.0]], tenors=[T6M],
        forward_curve=0.02, forward_spread_curves=[0.005], spread_factor_mode="integrated-drift")


# (model, n_steps, dt): two atoms; a step mean of 15, drawn by the fallback;
# an atom of zero intensity between two others
DRIVER_JUMPS = {
    "two": (driver_jump_model([[0.01, 0.0], [-0.02, 0.005]], [4.0, 2.5]), 6, 1 / 12),
    "hot": (driver_jump_model([[0.001, 0.0], [0.0, -0.002]], [100.0, 50.0]), 3, 0.1),
    "zero": (driver_jump_model([[0.01, 0.0], [0.5, 0.5], [-0.01, 0.002]], [3.0, 0.0, 2.0]),
             6, 1 / 12),
}


def scalar_increments(model, seed, lo, hi, n_steps, dt):
    """Reference ``hjm._increments``: the increments of the jump-free driver,
    plus the jumps of ``ScalarJumpRows`` at mean Lambda * dt with atom
    probabilities lambda_j / Lambda.  Returns the increments and the number
    of jumps."""
    driver = model.driver
    plain = dataclasses.replace(model, driver=LevyTriplet(driver.drift, driver.covariance))
    dx, none = INCREMENTS(plain, seed, lo, hi, n_steps, dt)
    assert none is None
    lam = float(driver.jump_intensities.sum())
    draws = ScalarJumpRows(driver.jump_intensities / lam, seed, lo, hi, DRIVER_COL, n_steps, None)
    means = np.full(hi - lo, lam * dt)
    for step in range(n_steps):
        for i, atom in draws.rounds(means, None):
            dx[step, :, i] += driver.jump_sizes[atom]
    return dx, draws.jumps


@settings(max_examples=20)
@given(name=st.sampled_from(sorted(DRIVER_JUMPS)), lo=st.integers(0, 2 ** 40),
       n_paths=st.integers(1, 9), seed=seeds)
def test_driver_jumps_match_scalar_rows(name, lo, n_paths, seed):
    model, n_steps, dt = DRIVER_JUMPS[name]
    got, draws = hjm._increments(model, seed, lo, lo + n_paths, n_steps, dt)
    want, jumps = scalar_increments(model, seed, lo, lo + n_paths, n_steps, dt)
    assert np.array_equal(got, want)
    assert draws.jumps == jumps
    assert draws.live.all() == (name == "hot")


def hjm_driver_jumps(model, n_steps, dt):
    return hjm._increments(model, 5, 0, 40, n_steps, dt)[1].jumps


def affine_driver_jumps(spec, horizon, dt):
    with batch_counters() as batches:
        simulate_affine(spec, horizon, dt, 40, 5, [horizon])
    return sum(b["jumps"] for b in batches)


@pytest.mark.parametrize("draw, args", [
    *(pytest.param(hjm_driver_jumps, args, id=f"hjm-{name}")
      for name, args in DRIVER_JUMPS.items()),
    *(pytest.param(affine_driver_jumps, (JUMP_SPECS[name], *JUMP_GRIDS[name]), id=f"affine-{name}")
      for name in JUMP_SPECS)])
def test_driver_jump_rows_skip_column_group_zero(draw, args):
    # column group 0 of path i's stream-0 row is block i of path 0's own
    # stream, which the stepped normals read, affine and HJM alike
    with mock.patch.object(rng, "uniform_rows", wraps=rng.uniform_rows) as read:
        jumps = draw(*args)
    assert jumps > 0 and read.call_count >= 2
    for call in read.call_args_list:
        seed, lo, hi, col_lo, col_hi, stream = call.args
        assert stream == rng.DRIVER_STREAM and col_lo >= DRIVER_COL


def test_kernel_mode_with_driver_jumps_matches_the_references():
    # kernel jumps read stream 1 from column 0 and driver jumps stream 0 from
    # column 4; each matches its own scalar reference in one simulation
    jumpy = LevyTriplet(drift=[0.0, 0.0], covariance=np.diag([1.0, 0.0]),
                        jump_sizes=[[0.01, 0.0], [-0.005, 0.0]], jump_intensities=[3.0, 2.0])
    args = (dataclasses.replace(kernel_hjm_model(), driver=jumpy), 0.5, 1 / 8, 26, 95,
            [0.5, 1.0])
    with batch_counters("hjm") as batches:
        got = simulate_hjm(*args, batch_size=4).pathset(0.5)
    with mock.patch.object(hjm, "_increments", lambda *a: (scalar_increments(*a)[0], None)), \
            mock.patch.object(hjm, "_kernel_step", ScalarKernelSteps(95, 4)):
        want = simulate_hjm(*args, batch_size=4).pathset(0.5)
    assert np.array_equal(got.numeraire, want.numeraire)
    assert np.array_equal(got.bonds, want.bonds)
    for tenor in (T3M, T6M):
        assert np.array_equal(got.spreads[tenor], want.spreads[tenor])
    assert sum(b["driver_jumps"] for b in batches) > 0
    assert sum(b["kernel_jumps"] for b in batches) > 0


# ---------------------------------------------------------------------------
# batch order: both simulators take their path ranges from rng.map_batches and
# carry no state from one batch to the next


def reversed_batches(batch, n_paths, batch_size):
    """``rng.map_batches`` that runs the ranges last to first and returns the
    results in path order."""
    ranges = [(lo, min(lo + batch_size, n_paths)) for lo in range(0, n_paths, batch_size)]
    return [batch(lo, hi) for lo, hi in ranges[::-1]][::-1]


def hjm_run(model, method):
    return lambda: simulate_hjm(model, horizon=0.5, dt=1 / 8, n_paths=11, seed=61,
                                maturities=[0.5, 1.0], observation_times=[0.25, 0.5],
                                method=method, batch_size=4)


def affine_run(spec):
    return lambda: simulate_affine(spec, 0.3, 0.1, 11, 61, [0.3, 0.8], batch_size=4)


JUMP_FREE_HJM = driver_jump_model(np.zeros((0, 2)), [])
# 11 paths in batches of 4, 4 and 3
ORDER_CASES = {
    "hjm-factor": hjm_run(JUMP_FREE_HJM, "factor"),
    "hjm-driver-jumps": hjm_run(DRIVER_JUMPS["two"][0], "factor"),
    "hjm-grid": hjm_run(JUMP_FREE_HJM, "grid"),
    "affine-exact": affine_run(SPECS["gauss"]),
    "affine-stepped-jumps": affine_run(SPECS["jump"]),
    "affine-euler-cir": affine_run(SPECS["cir"]),
}


def run_arrays(result):
    """Every array of a PathSet, or of each snapshot and the diagnostics of an
    HJM result, by name."""
    if hasattr(result, "snapshots"):
        out = {"consistency_series": result.diagnostics["consistency_series"],
               "aborted": np.array(result.diagnostics["aborted"])}
        for t, paths in result.snapshots.items():
            out.update({f"{t}/{k}": v for k, v in run_arrays(paths).items()})
        return out
    out = {"maturities": result.maturities, "numeraire": result.numeraire, "bonds": result.bonds}
    out.update({f"spread {tenor}": s for tenor, s in result.spreads.items()})
    return out


@pytest.mark.parametrize("name", sorted(ORDER_CASES))
def test_batches_run_in_reverse_order_give_the_same_bits(name):
    want = run_arrays(ORDER_CASES[name]())
    with mock.patch.object(rng, "map_batches", wraps=reversed_batches) as split:
        got = run_arrays(ORDER_CASES[name]())
    assert split.call_count == 1 and split.call_args.args[1:] == (11, 4)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert np.array_equal(got[key], value), key


# ---------------------------------------------------------------------------
# pinned streams


def test_pinned_driver_block():
    normals = rng.driver_increment_block(20240601, 3, 6, 4, 2)
    assert normals[:, 0, :].ravel().tolist() == [
        0.5124465051368492, 0.5611800033227373, 2.1358755795592725,
        -0.34106330161293263, 0.002714434954281419, -0.050493089621893965]
    assert normals[2, 3, 1] == 0.7210834298113212


# Each entry: the numeraire, a pure function of the streams, and the spread at
# maturity 1.0, which also carries the transform exponents at tau = 0.5, so a
# change of the Riccati solver (or, for ``gauss``, of the Gaussian law) moves it
# too.
PINNED_AFFINE = {
    "gauss": (
        [1.0087311881389431, 1.009487641477064, 1.012895959462351,
         1.0090412387381544, 1.0102344992858512],
        [0.9969500318321514, 1.0135649550031633, 1.0167029858933845,
         0.9997612300773745, 1.006038946211138]),
    "cir": (
        [1.0207874641381323, 1.003230690197184, 1.0178656776651829,
         1.004514512531918, 1.004479442050513],
        [1.0075325722618662, 0.9954955443376224, 1.0081702094857792,
         1.0100797678780884, 1.004482699877749]),
    "jump": (
        [1.0157010673588422, 1.005724807993729, 1.0079285003142138,
         1.014173320146336, 1.020219026292372],
        [1.013286539990878, 1.0023371091959048, 1.011560646953539,
         1.0211859765488553, 1.0233682813030012]),
}


@pytest.mark.parametrize("name", sorted(PINNED_AFFINE))
def test_pinned_simulate_affine(name):
    spec = SPECS[name]
    paths = simulate_affine(spec, 0.5, 0.1, 5, 97, [0.5, 1.0], batch_size=2)
    numeraire, spread = PINNED_AFFINE[name]
    assert paths.numeraire.tolist() == numeraire
    assert paths.spreads[spec.tenors[-1]][:, 1].tolist() == spread


def test_pinned_simulate_affine_stepped_gaussian_spread_pair():
    # jumps send the two-spread Gaussian model through the step loop, which
    # multiplies one fixed spread factor into the noise; recorded from the
    # broadcast product, whose bits eta @ F.T misses on path 96's 6M spread
    # (the first path where they differ)
    spec = dataclasses.replace(
        SPECS["gauss"], jumps=AffineJumps(atoms_x=[[0.01], [-0.008]], probabilities=[0.6, 0.4],
                                          intensity_const=6.0,
                                          atoms_y=[[0.002, 0.0], [0.0, 0.001]]))
    paths = simulate_affine(spec, 0.5, 0.1, 100, 97, [0.5, 1.0])
    assert paths.numeraire[96] == 1.0039447822860885
    assert paths.spreads[T3M][96].tolist() == [0.9990515722266929, 1.0033068792024022]
    assert paths.spreads[T6M][96].tolist() == [1.0033854443617765, 1.0085856354476244]


def test_pinned_simulate_yperp():
    family = KernelFamily([0.5, 1.0], mass_cap=50.0)
    paths = simulate_yperp(family, lambda t: np.array([4.0, 12.0]), horizon=0.5, dt=1 / 26,
                           n_paths=6, seed=9)
    assert paths.values[:, -1].tolist() == [
        2.6925211905858855, 1.342207152716012, 1.342207152716012,
        4.042835228455759, 2.651560480069623, 2.6925211905858855]
    assert paths.jump_counts.tolist() == [2, 1, 1, 3, 2, 2]
    assert paths.compensators[3, 1, -1] == 6.000000000000004


def test_pinned_simulate_hjm_kernel_mode():
    # seven batches (6 x 4 + 2 paths); paths 12 and 24 jump once, 21 and 25
    # twice and 18 three times; the first 6 paths do not jump
    res = simulate_hjm(kernel_hjm_model(), horizon=0.5, dt=1 / 8, n_paths=26, seed=95,
                       maturities=[0.5, 1.0], batch_size=4)
    paths = res.pathset(0.5)
    assert paths.numeraire[:6].tolist() == [
        1.00785522425748, 1.0081531402551818, 1.0094261215674607,
        1.0092695285784605, 1.007845156473616, 1.0109766095272996]
    spreads = [1.0101511771512957] * 26
    for path, spread in {12: 1.0487423395748794, 18: 1.132660767113132, 21: 1.0905404032825192,
                         24: 1.0487423395748794, 25: 1.0905404032825192}.items():
        spreads[path] = spread
    assert paths.spreads[T6M][:, 1].tolist() == spreads
    assert res.diagnostics["consistency_max"] == 2.3245294578089215e-16
