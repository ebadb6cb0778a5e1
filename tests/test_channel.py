import json

import numpy as np
import pytest

from fluidsar.channel import (
    ChannelRealization,
    ConfigurationError,
    PathSet,
    Region,
    channel_matrix,
    dbm_to_watts,
    layout_is_feasible,
    min_pairwise_distance,
    sample_channel,
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
# Each case reads channel_matrix of one user against a closed form written
# here: h(t) = sum_p f_p exp(-j 2 pi rho_p(t) / lambda), with the path-length
# difference rho_p(t) = x sin(theta_p) cos(phi_p) + y cos(theta_p).

def one_path(theta, phi, gain=1.0):
    """A one-user channel of a single path."""
    return ChannelRealization(paths=(PathSet(np.array([theta]), np.array([phi]),
                                             np.array([gain], dtype=complex)),))


def test_propagation_delta_origin_is_zero(rng):
    # no path-length difference at the origin: the channel is the path's gain
    for _ in range(5):
        theta, phi = rng.uniform(0, np.pi, 2)
        gain = complex(*rng.standard_normal(2))
        assert channel_matrix((0.0, 0.0), one_path(theta, phi, gain), WAVELENGTH)[0, 0] == gain


def test_propagation_delta_axis_cases():
    # theta=pi/2, phi=0 picks out x; theta=0 picks out y
    t = (1.3 * WAVELENGTH, -0.4 * WAVELENGTH)
    kap = 2 * np.pi / WAVELENGTH
    assert channel_matrix(t, one_path(np.pi / 2, 0.0), WAVELENGTH)[0, 0] == \
        pytest.approx(np.exp(-1j * kap * t[0]), abs=1e-12)
    assert channel_matrix(t, one_path(0.0, 1.1), WAVELENGTH)[0, 0] == \
        pytest.approx(np.exp(-1j * kap * t[1]), abs=1e-12)


def test_field_response_is_all_ones_at_origin(rng):
    # every path of a user arrives in phase at the origin
    paths = make_paths(rng, 7)
    for p in range(paths.count):
        real = one_path(paths.elevation_aods[p], paths.azimuth_aods[p])
        assert channel_matrix((0.0, 0.0), real, WAVELENGTH)[0, 0] == pytest.approx(1.0)


def test_field_response_half_wavelength_phase():
    # a single path along x with the antenna half a wavelength out: phase pi
    h = channel_matrix((WAVELENGTH / 2, 0.0), one_path(np.pi / 2, 0.0), WAVELENGTH)
    assert h[0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_field_response_unit_modulus_and_phase_match(rng):
    paths = make_paths(rng, 9)
    for _ in range(20):
        t = rng.uniform(-2 * WAVELENGTH, 2 * WAVELENGTH, 2)
        for p in range(paths.count):
            theta, phi = paths.elevation_aods[p], paths.azimuth_aods[p]
            h = channel_matrix(t, one_path(theta, phi), WAVELENGTH)[0, 0]
            assert abs(abs(h) - 1.0) < 1e-12
            # independent scalar recomputation of the phase, sign included
            rho = t[0] * np.sin(theta) * np.cos(phi) + t[1] * np.cos(theta)
            assert np.angle(h * np.exp(1j * 2 * np.pi / WAVELENGTH * rho)) == \
                pytest.approx(0.0, abs=1e-10)


def test_channel_vector_single_path_unit_magnitude(rng):
    gain = 0.7 - 0.2j
    pos = rng.uniform(-WAVELENGTH, WAVELENGTH, (5, 2))
    h = channel_matrix(pos, one_path(1.0, 2.0, gain), WAVELENGTH)[0]
    assert np.allclose(np.abs(h), abs(gain), atol=1e-12)


def test_channel_vector_identical_positions_identical_entries(rng):
    paths = make_paths(rng, 6)
    pos = np.zeros((4, 2))
    h = channel_matrix(pos, ChannelRealization(paths=(paths,)), WAVELENGTH)[0]
    assert np.allclose(h, paths.path_gains.sum())


def bruteforce_channel(pos, paths):
    """Independent O(ML) accumulation of one user's channel with scalar loops."""
    h = np.zeros(len(pos), dtype=complex)
    for m in range(len(pos)):
        for p in range(paths.count):
            rho = (pos[m, 0] * np.sin(paths.elevation_aods[p]) * np.cos(paths.azimuth_aods[p])
                   + pos[m, 1] * np.cos(paths.elevation_aods[p]))
            h[m] += np.exp(-1j * 2 * np.pi / WAVELENGTH * rho) * paths.path_gains[p]
    return h


def test_channel_vector_matches_bruteforce(rng):
    for trial in range(10):
        real = ChannelRealization(paths=tuple(make_paths(rng, 8) for _ in range(3)))
        pos = rng.uniform(-WAVELENGTH, WAVELENGTH, (5, 2))
        H = channel_matrix(pos, real, WAVELENGTH)
        for k, paths in enumerate(real.paths):
            want = bruteforce_channel(pos, paths)
            assert np.all(np.abs(H[k] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("M", [1, 4, 6])
@pytest.mark.parametrize("K", [1, 4])
@pytest.mark.parametrize("L", [1, 5, 15])
def test_channel_matrix_is_stacked_channel_vectors_bit_for_bit(rng, M, K, L):
    # all users at once must round every entry as each user's channel alone
    # does, and match the scalar loop
    for _ in range(20):
        real = ChannelRealization(paths=tuple(make_paths(rng, L) for _ in range(K)))
        pos = rng.uniform(-3 * WAVELENGTH, 3 * WAVELENGTH, (M, 2))
        H = channel_matrix(pos, real, WAVELENGTH)
        for k, paths in enumerate(real.paths):
            alone = channel_matrix(pos, ChannelRealization(paths=(paths,)), WAVELENGTH)
            assert H[k].tobytes() == alone[0].tobytes()
            want = bruteforce_channel(pos, paths)
            assert np.all(np.abs(H[k] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


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
    h_shift = channel_matrix(shifted, ChannelRealization(paths=(paths,)), WAVELENGTH)[0]
    adjusted = 0.0 + 0.0j
    for p in range(paths.count):
        ax = np.sin(paths.elevation_aods[p]) * np.cos(paths.azimuth_aods[p])
        ay = np.cos(paths.elevation_aods[p])
        rho_old = pos[1, 0] * ax + pos[1, 1] * ay
        rho_d = delta[0] * ax + delta[1] * ay
        adjusted += np.exp(-1j * kap * (rho_old + rho_d)) * paths.path_gains[p]
    assert abs(h_shift[1] - adjusted) < 1e-10


# ---------------------------------------------------------------- SINR

def test_sinr_zero_precoder_column():
    rng = np.random.default_rng(5)
    real = sample_channel(1, 3, 2, 4, NOISE_W)
    pos = uniform_line_layout(3, Region(1.0, WAVELENGTH))
    P = random_complex(rng, (3, 2))
    P[:, 0] = 0.0
    assert sinr_all(P, channel_matrix(pos, real, WAVELENGTH), NOISE_W)[0] == 0.0


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
    assert sinr_all(P, H, NOISE_W)[0] == pytest.approx(expected, rel=1e-9)


def test_sinr_matches_direct_evaluation(rng):
    real = sample_channel(3, 2, 2, 5, NOISE_W)
    pos = uniform_line_layout(2, Region(1.0, WAVELENGTH))
    P = random_complex(rng, (2, 2))
    H = channel_matrix(pos, real, WAVELENGTH)
    for k in range(2):
        # independent scalar-product oracle
        sig = abs(np.vdot(H[k], P[:, k])) ** 2
        inter = sum(abs(np.vdot(H[k], P[:, j])) ** 2 for j in range(2) if j != k)
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
