import json

import numpy as np
import pytest

from fluidsar.channel import (
    ChannelRealization,
    ConfigurationError,
    PathSet,
    Region,
    channel_matrix,
    channel_vector,
    dbm_to_watts,
    field_response_vector,
    layout_is_feasible,
    min_pairwise_distance,
    propagation_delta,
    sample_channel,
    sinr,
    sinr_all,
    uniform_line_layout,
)

from conftest import NOISE_W, WAVELENGTH, random_complex


def make_paths(rng, L):
    return PathSet(
        elevation_aods=rng.uniform(0, np.pi, L),
        azimuth_aods=rng.uniform(0, np.pi, L),
        path_gains=random_complex(rng, L),
    )


# ---------------------------------------------------------------- geometry

def test_propagation_delta_origin_is_zero(rng):
    for _ in range(5):
        theta, phi = rng.uniform(0, np.pi, 2)
        assert propagation_delta((0.0, 0.0), theta, phi) == 0.0


def test_propagation_delta_axis_cases():
    # theta=pi/2, phi=0 picks out x; theta=0 picks out y
    assert propagation_delta((1.3, -0.4), np.pi / 2, 0.0) == pytest.approx(1.3, abs=1e-12)
    assert propagation_delta((1.3, -0.4), 0.0, 1.1) == pytest.approx(-0.4, abs=1e-12)


def test_field_response_is_all_ones_at_origin(rng):
    paths = make_paths(rng, 7)
    g = field_response_vector((0.0, 0.0), paths, WAVELENGTH)
    assert np.allclose(g, 1.0)


def test_field_response_half_wavelength_phase():
    # a single path along x with the antenna half a wavelength out: phase pi
    paths = PathSet(elevation_aods=np.array([np.pi / 2]),
                    azimuth_aods=np.array([0.0]),
                    path_gains=np.array([1.0 + 0j]))
    g = field_response_vector((WAVELENGTH / 2, 0.0), paths, WAVELENGTH)
    assert g[0] == pytest.approx(-1.0, abs=1e-12)


def test_field_response_unit_modulus_and_phase_match(rng):
    paths = make_paths(rng, 9)
    for _ in range(20):
        t = rng.uniform(-2 * WAVELENGTH, 2 * WAVELENGTH, 2)
        g = field_response_vector(t, paths, WAVELENGTH)
        assert np.max(np.abs(np.abs(g) - 1.0)) < 1e-12
        # independent scalar recomputation of each phase
        for p in range(paths.count):
            rho = propagation_delta(t, paths.elevation_aods[p], paths.azimuth_aods[p])
            assert np.angle(g[p] * np.exp(-1j * 2 * np.pi / WAVELENGTH * rho)) == \
                pytest.approx(0.0, abs=1e-10)


def test_channel_vector_single_path_unit_magnitude(rng):
    gain = 0.7 - 0.2j
    paths = PathSet(np.array([1.0]), np.array([2.0]), np.array([gain]))
    pos = rng.uniform(-WAVELENGTH, WAVELENGTH, (5, 2))
    h = channel_vector(pos, paths, WAVELENGTH)
    assert np.allclose(np.abs(h), abs(gain), atol=1e-12)


def test_channel_vector_identical_positions_identical_entries(rng):
    paths = make_paths(rng, 6)
    pos = np.zeros((4, 2))
    h = channel_vector(pos, paths, WAVELENGTH)
    assert np.allclose(h, paths.path_gains.sum())


def test_channel_vector_matches_bruteforce(rng):
    # independent O(ML) accumulation with scalar loops
    for trial in range(10):
        paths = make_paths(rng, 8)
        pos = rng.uniform(-WAVELENGTH, WAVELENGTH, (5, 2))
        h = channel_vector(pos, paths, WAVELENGTH)
        for m in range(5):
            acc = 0.0 + 0.0j
            for p in range(paths.count):
                rho = (pos[m, 0] * np.sin(paths.elevation_aods[p]) * np.cos(paths.azimuth_aods[p])
                       + pos[m, 1] * np.cos(paths.elevation_aods[p]))
                acc += np.exp(-1j * 2 * np.pi / WAVELENGTH * rho) * paths.path_gains[p]
            assert abs(h[m] - acc) <= 1e-12 * max(1.0, abs(acc))


@pytest.mark.parametrize("M", [1, 4, 6])
@pytest.mark.parametrize("K", [1, 4])
@pytest.mark.parametrize("L", [1, 5, 15])
def test_channel_matrix_is_stacked_channel_vectors_bit_for_bit(rng, M, K, L):
    # all users at once must round every entry as the per-user vector does
    for _ in range(20):
        real = ChannelRealization(paths=tuple(make_paths(rng, L) for _ in range(K)))
        pos = rng.uniform(-3 * WAVELENGTH, 3 * WAVELENGTH, (M, 2))
        want = np.stack([channel_vector(pos, ps, WAVELENGTH) for ps in real.paths])
        assert channel_matrix(pos, real, WAVELENGTH).tobytes() == want.tobytes()


def test_channel_refuses_ragged_path_counts(rng):
    # every moving solve stacks the users' paths: users with different path
    # counts, or no users, are refused when the channel is built
    ragged = (make_paths(rng, 3), make_paths(rng, 7), make_paths(rng, 1))
    with pytest.raises(ConfigurationError, match="path count"):
        ChannelRealization(paths=ragged)
    with pytest.raises(ConfigurationError, match="path count"):
        ChannelRealization(paths=())
    doc = ChannelRealization(paths=ragged[:1]).to_json_dict()
    doc["users"].append(ChannelRealization(paths=ragged[1:2]).to_json_dict()["users"][0])
    with pytest.raises(ConfigurationError, match="path count"):
        ChannelRealization.from_json(json.dumps(doc))


def test_channel_translation_covariance(rng):
    # shifting one antenna multiplies each per-path term by a pure phase
    paths = make_paths(rng, 5)
    pos = rng.uniform(-WAVELENGTH, WAVELENGTH, (3, 2))
    delta = rng.uniform(-WAVELENGTH, WAVELENGTH, 2)
    kap = 2 * np.pi / WAVELENGTH
    shifted = pos.copy()
    shifted[1] += delta
    h_shift = channel_vector(shifted, paths, WAVELENGTH)
    adjusted = 0.0 + 0.0j
    for p in range(paths.count):
        rho_old = propagation_delta(pos[1], paths.elevation_aods[p], paths.azimuth_aods[p])
        rho_d = propagation_delta(delta, paths.elevation_aods[p], paths.azimuth_aods[p])
        adjusted += np.exp(-1j * kap * (rho_old + rho_d)) * paths.path_gains[p]
    assert abs(h_shift[1] - adjusted) < 1e-10


# ---------------------------------------------------------------- SINR

def test_sinr_zero_precoder_column():
    rng = np.random.default_rng(5)
    real = sample_channel(1, 3, 2, 4, NOISE_W)
    pos = uniform_line_layout(3, Region(1.0, WAVELENGTH))
    P = random_complex(rng, (3, 2))
    P[:, 0] = 0.0
    assert sinr(P, real, pos, 0, WAVELENGTH) == 0.0


def test_sinr_orthogonal_interference(rng):
    real = sample_channel(2, 4, 2, 6, NOISE_W)
    pos = uniform_line_layout(4, Region(1.0, WAVELENGTH))
    H = channel_matrix(pos, real, WAVELENGTH)
    h0 = H[0]
    # build an interfering column orthogonal to h0
    v = random_complex(rng, 4)
    v -= (h0.conj() @ v) / (h0.conj() @ h0) * h0
    P = np.column_stack([random_complex(rng, 4), v])
    expected = np.abs(h0.conj() @ P[:, 0]) ** 2 / NOISE_W
    assert sinr(P, real, pos, 0, WAVELENGTH) == pytest.approx(expected, rel=1e-9)


def test_sinr_matches_direct_evaluation(rng):
    real = sample_channel(3, 2, 2, 5, NOISE_W)
    pos = uniform_line_layout(2, Region(1.0, WAVELENGTH))
    P = random_complex(rng, (2, 2))
    H = channel_matrix(pos, real, WAVELENGTH)
    for k in range(2):
        # independent scalar-product oracle
        sig = abs(np.vdot(H[k], P[:, k])) ** 2
        inter = sum(abs(np.vdot(H[k], P[:, j])) ** 2 for j in range(2) if j != k)
        assert sinr(P, real, pos, k, WAVELENGTH) == pytest.approx(
            sig / (inter + NOISE_W), rel=1e-12)
        assert sinr_all(P, H, NOISE_W)[k] == pytest.approx(sig / (inter + NOISE_W), rel=1e-12)


def test_sinr_invariant_under_column_phase_rotation(rng):
    real = sample_channel(4, 3, 3, 5, NOISE_W)
    pos = uniform_line_layout(3, Region(1.0, WAVELENGTH))
    P = random_complex(rng, (3, 3))
    H = channel_matrix(pos, real, WAVELENGTH)
    base = sinr_all(P, H, NOISE_W)
    P2 = P.copy()
    P2[:, 1] *= np.exp(1j * 0.83)
    rotated = sinr_all(P2, H, NOISE_W)
    assert np.allclose(rotated, base, rtol=1e-12)


# ---------------------------------------------------------------- sampling

def test_sample_channel_deterministic():
    a = sample_channel(42, 4, 3, 7, NOISE_W)
    b = sample_channel(42, 4, 3, 7, NOISE_W)
    for pa, pb in zip(a.paths, b.paths):
        assert np.array_equal(pa.path_gains, pb.path_gains)
        assert np.array_equal(pa.elevation_aods, pb.elevation_aods)


def test_sample_channel_gain_variance():
    # Monte Carlo check of the generator: unit variance within 3%
    real = sample_channel(7, 1, 1, 100000, NOISE_W)
    g = real.paths[0].path_gains
    var = np.mean(np.abs(g) ** 2)
    assert abs(var - 1.0) < 0.03
    assert abs(np.mean(g.real)) < 0.02 and abs(np.mean(g.imag)) < 0.02


def test_sample_channel_aod_moments():
    real = sample_channel(8, 1, 1, 100000, NOISE_W)
    sigma_mean = (np.pi / np.sqrt(12.0)) / np.sqrt(100000.0)
    for angles in (real.paths[0].elevation_aods, real.paths[0].azimuth_aods):
        assert angles.min() >= 0.0 and angles.max() <= np.pi
        assert abs(angles.mean() - np.pi / 2) < 3 * sigma_mean


def test_sample_channel_rejects_bad_dimensions():
    with pytest.raises(ConfigurationError):
        sample_channel(1, 0, 2, 3, NOISE_W)
    with pytest.raises(ConfigurationError):
        sample_channel(1, 2, 2, 0, NOISE_W)
    with pytest.raises(ConfigurationError):
        ChannelRealization(paths=(), noise_variance=0.0)
    # noise must be finite as well: NaN would pass a "<= 0" test
    for noise in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="noise variance"):
            sample_channel(1, 4, 4, 15, noise)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_region_refuses_sizes_that_are_not_finite_and_positive(bad):
    with pytest.raises(ConfigurationError, match="half_width"):
        Region(half_width=bad)
    with pytest.raises(ConfigurationError, match="wavelength"):
        Region(wavelength=bad)


# ---------------------------------------------------------------- layout and region

def test_uniform_line_layout_paper_case(region):
    pos = uniform_line_layout(4, region)
    assert np.allclose(pos[:, 0] / WAVELENGTH, [-0.75, -0.25, 0.25, 0.75])
    assert np.allclose(pos[:, 1], 0.0)
    assert min_pairwise_distance(pos) == pytest.approx(WAVELENGTH / 2)


def test_uniform_line_layout_must_fit():
    small = Region(half_width=0.5, wavelength=WAVELENGTH)
    with pytest.raises(ConfigurationError):
        uniform_line_layout(6, small)  # span 2.5 lambda > 1 lambda box width


def test_layout_feasibility(region):
    pos = uniform_line_layout(4, region)
    assert layout_is_feasible(pos, region, WAVELENGTH / 2)
    crowded = pos.copy()
    crowded[1] = crowded[0] + [WAVELENGTH / 4, 0.0]
    assert not layout_is_feasible(crowded, region, WAVELENGTH / 2)
    outside = pos.copy()
    outside[0, 1] = 2 * region.half_width_m
    assert not layout_is_feasible(outside, region, WAVELENGTH / 2)


def test_dbm_conversion():
    assert dbm_to_watts(-105.0) == pytest.approx(10 ** (-13.5), rel=1e-12)
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------- serialization

def test_channel_json_roundtrip():
    real = sample_channel(123, 3, 2, 6, NOISE_W)
    doc = real.to_json()
    back = ChannelRealization.from_json(doc)
    assert back.seed == 123
    assert back.noise_variance == real.noise_variance
    for pa, pb in zip(real.paths, back.paths):
        assert np.array_equal(pa.elevation_aods, pb.elevation_aods)
        assert np.array_equal(pa.azimuth_aods, pb.azimuth_aods)
        assert np.array_equal(pa.path_gains, pb.path_gains)
    # gains stored as [re, im] pairs, angles in radians
    parsed = json.loads(doc)
    assert isinstance(parsed["users"][0]["path_gains"][0], list)


def test_channel_json_keeps_signed_zeros():
    gains = np.empty(2, dtype=complex)
    gains.real = [-0.0, 0.5]
    gains.imag = [1.0, -0.0]
    real = ChannelRealization(paths=(PathSet(np.ones(2), np.ones(2), gains),))
    back = ChannelRealization.from_json(real.to_json()).paths[0].path_gains
    assert back.tobytes() == gains.tobytes()
    assert np.signbit(back.real[0]) and np.signbit(back.imag[1])
