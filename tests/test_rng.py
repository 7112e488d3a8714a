"""Per-path random streams: key bounds, re-keyed streams, batch invariance, pins.

The pinned values at the end were recorded from the per-path generators that
predate ``PathStreams``.  Any change to a seeded stream makes them fail, so a
stream change has to be made, and announced, on purpose.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multicurve import rng
from multicurve.affine import AffineJumps, AffineModelSpec, simulate_affine
from multicurve.momentkernel import KernelFamily, simulate_yperp
from multicurve.termstructure import Tenor

T3M = Tenor.parse("3M")
T6M = Tenor.parse("6M")

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=50,
                    suppress_health_check=[HealthCheck.too_slow])

seeds = st.integers(0, 2 ** 64 - 1)
paths = st.integers(0, 2 ** 63 - 1)
streams = st.sampled_from([rng.DRIVER_STREAM, rng.YPERP_STREAM])


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


SPECS = {"gauss": gaussian_spec(), "cir": cir_spec(), "jump": jump_spec()}


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
            rng.PathStreams(0, stream)


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


@PROPERTY
@given(seed=seeds, stream=streams,
       indices=st.lists(paths | st.integers(0, 64), min_size=1, max_size=6),
       n_normals=st.integers(0, 9))
def test_rekeyed_stream_matches_fresh_generator(seed, stream, indices, n_normals):
    shared = rng.PathStreams(seed, stream)
    for path in indices:
        got = mixed_draws(shared.at(path), n_normals)
        want = mixed_draws(rng.path_generator(seed, path, stream), n_normals)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


@PROPERTY
@given(seed=seeds, lo=st.integers(0, 2 ** 40), n_paths=st.integers(1, 8),
       cut=st.integers(0, 8), with_jumps=st.booleans())
def test_driver_block_independent_of_path_split(seed, lo, n_paths, cut, with_jumps):
    cut = min(cut, n_paths)
    means = np.array([0.4, 1.5]) if with_jumps else None
    normals, counts = rng.driver_increment_block(seed, lo, lo + n_paths, 3, 2, means)
    head = rng.driver_increment_block(seed, lo, lo + cut, 3, 2, means)
    tail = rng.driver_increment_block(seed, lo + cut, lo + n_paths, 3, 2, means)
    assert np.array_equal(normals, np.concatenate([head[0], tail[0]]))
    if with_jumps:
        assert np.array_equal(counts, np.concatenate([head[1], tail[1]]))
    # each row is its path's own stream
    gen = rng.path_generator(seed, lo + n_paths - 1)
    assert np.array_equal(normals[-1], gen.standard_normal((3, 2)))


@settings(PROPERTY, max_examples=30)
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
# pinned streams


def test_pinned_driver_block():
    normals, counts = rng.driver_increment_block(20240601, 3, 6, 4, 2, np.array([0.3, 1.7]))
    assert normals[:, 0, :].ravel().tolist() == [
        0.5124465051368492, 0.5611800033227373, 2.1358755795592725,
        -0.34106330161293263, 0.002714434954281419, -0.050493089621893965]
    assert normals[2, 3, 1] == 0.7210834298113212
    assert counts.reshape(3, -1).tolist() == [
        [1, 1, 1, 5, 0, 1, 0, 1], [0, 2, 0, 1, 0, 2, 0, 2], [0, 1, 0, 3, 0, 3, 0, 3]]


PINNED_AFFINE = {
    "gauss": (
        [1.0105897176857686, 1.0071421637313958, 1.0128992660320162,
         1.0120478129141928, 1.0084288390347205],
        [0.995411410918324, 1.013308653452904, 1.0032503314890537,
         1.011034273213499, 1.0075094591937097]),
    "cir": (
        [1.0207874641381323, 1.003230690197184, 1.0178656776651829,
         1.004514512531918, 1.004479442050513],
        [1.0075325722618689, 0.9954955443376219, 1.008170209485781,
         1.0100797678780873, 1.0044826998777476]),
    "jump": (
        [1.0092924394511475, 1.008102995101204, 1.0132462346910878,
         1.011996801908409, 1.0108753324751505],
        [1.008778008453021, 0.9985530156334061, 1.0157842062018991,
         1.0191018191463528, 1.0107507062503385]),
}


@pytest.mark.parametrize("name", sorted(PINNED_AFFINE))
def test_pinned_simulate_affine(name):
    spec = SPECS[name]
    paths = simulate_affine(spec, 0.5, 0.1, 5, 97, [0.5, 1.0], batch_size=2)
    numeraire, spread = PINNED_AFFINE[name]
    assert paths.numeraire.tolist() == numeraire
    assert paths.spreads[spec.tenors[-1]][:, 1].tolist() == spread


def test_pinned_simulate_yperp():
    family = KernelFamily([0.5, 1.0], mass_cap=50.0, p_fn=lambda t: np.array([4.0, 12.0]))
    paths = simulate_yperp(family, horizon=0.5, dt=1 / 26, n_paths=6, seed=9)
    assert paths.values[:, -1].tolist() == [
        1.342207152716012, 1.342207152716012, 1.342207152716012,
        5.436672737818551, 0.0, 4.044116608944087]
    assert paths.jump_counts.tolist() == [1, 1, 1, 4, 0, 3]
    assert paths.compensators[3, 1, -1] == 6.0000000000000036
