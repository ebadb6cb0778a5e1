"""Geometric multipath channel between a fluid-antenna BS and single-antenna users.

Conventions used across the package:
  * antenna layouts are float arrays of shape (M, 2), rows t_m = (x_m, y_m) in meters
  * channel matrices H are complex arrays of shape (K, M), row k is h_k
  * precoders P are complex arrays of shape (M, K), column k serves user k
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "Region",
    "PathSet",
    "ChannelRealization",
    "ConfigurationError",
    "dbm_to_watts",
    "channel_matrix",
    "sinr_all",
    "min_weighted_sinr",
    "sample_channel",
    "uniform_line_layout",
    "aps_grid",
    "min_pairwise_distance",
    "layout_is_feasible",
]

DEFAULT_WAVELENGTH = 0.01  # 30 GHz carrier
DEFAULT_NOISE_W = 10.0 ** ((-105.0 - 30.0) / 10.0)  # -105 dBm in watts


class ConfigurationError(ValueError):
    """Raised for dimension or parameter errors in problem setup."""


def _encode_complex(values) -> list:
    """A complex array as nested lists ending in [re, im] pairs, for JSON."""
    return np.stack([values.real, values.imag], axis=-1).tolist()


def _decode_complex(pairs) -> np.ndarray:
    """Inverse of ``_encode_complex``. Sets the real and imaginary parts
    exactly: re + 1j * im would turn a real part of -0.0 into 0.0."""
    parts = np.asarray(pairs, dtype=float)
    values = np.empty(parts.shape[:-1], dtype=complex)
    values.real = parts[..., 0]
    values.imag = parts[..., 1]
    return values


def _jsonable(value):
    """``value`` as JSON data: a complex array as ``[re, im]`` pairs, any other
    array, tuple, list or row table as a list, a dict by value, and an object
    with ``to_json_dict`` through it."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if isinstance(value, np.ndarray):
        return _encode_complex(value) if np.iscomplexobj(value) else value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        return value
    return [_jsonable(v) for v in value]


class _JsonDoc:
    """The JSON codec of a dataclass: its fields in order, but those named in
    ``JSON_SKIP``, through ``_jsonable``; as text, indented by ``JSON_INDENT``.
    ``from_json`` reads a JSON object through the class's own
    ``from_json_dict``, and refuses a document of another shape."""

    JSON_SKIP = ()
    JSON_INDENT = None

    def to_json_dict(self) -> dict:
        return {f.name: _jsonable(getattr(self, f.name)) for f in fields(self)
                if f.name not in self.JSON_SKIP}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=self.JSON_INDENT)

    @classmethod
    def from_json(cls, text: str):
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ConfigurationError(f"{cls.__name__} document is not a JSON object")
        try:
            return cls.from_json_dict(doc)
        except (KeyError, TypeError, IndexError) as err:  # a missing or misshapen field
            raise ConfigurationError(
                f"malformed {cls.__name__} document: {type(err).__name__}: {err}") from None


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class Region:
    """Square placement region S = [-A, A] x [-A, A].

    ``half_width`` is expressed in wavelengths; coordinates handed to the
    geometry functions are in meters, so the box edge in meters is
    ``half_width_m`` = ``half_width * wavelength``.
    """

    half_width: float = 1.0
    wavelength: float = DEFAULT_WAVELENGTH

    def __post_init__(self):
        if not 0.0 < self.half_width < np.inf:  # false for NaN too
            raise ConfigurationError("region half_width must be finite and positive")
        if not 0.0 < self.wavelength < np.inf:
            raise ConfigurationError("wavelength must be finite and positive")
        object.__setattr__(self, "half_width_m", self.half_width * self.wavelength)

    def contains(self, positions: np.ndarray, tol: float = 0.0) -> bool:
        pts = np.atleast_2d(np.asarray(positions, dtype=float))
        return bool(np.all(np.abs(pts) <= self.half_width_m + tol))


@dataclass(frozen=True)
class PathSet:
    """Departure geometry and complex gains of the L paths toward one user."""

    elevation_aods: np.ndarray
    azimuth_aods: np.ndarray
    path_gains: np.ndarray

    def __post_init__(self):
        theta = np.asarray(self.elevation_aods, dtype=float)
        phi = np.asarray(self.azimuth_aods, dtype=float)
        gains = np.asarray(self.path_gains, dtype=complex)
        if theta.ndim != 1 or theta.size < 1:
            raise ConfigurationError("need at least one path")
        if phi.shape != theta.shape or gains.shape != theta.shape:
            raise ConfigurationError("AoD and gain arrays must share one length")
        object.__setattr__(self, "elevation_aods", theta)
        object.__setattr__(self, "azimuth_aods", phi)
        object.__setattr__(self, "path_gains", gains)

    @property
    def count(self) -> int:
        return self.elevation_aods.size

    @property
    def direction_cosines(self) -> tuple[np.ndarray, np.ndarray]:
        theta, phi = self.elevation_aods, self.azimuth_aods
        return np.sin(theta) * np.cos(phi), np.cos(theta)


@dataclass(frozen=True)
class ChannelRealization(_JsonDoc):
    """Per-user path sets, all of one length, plus the receiver noise variance (watts)."""

    paths: tuple[PathSet, ...]
    noise_variance: float = DEFAULT_NOISE_W
    seed: int | None = None

    def __post_init__(self):
        if not 0.0 < self.noise_variance < np.inf:  # false for NaN too
            raise ConfigurationError("noise variance must be finite and positive")
        object.__setattr__(self, "paths", tuple(self.paths))
        if len({ps.count for ps in self.paths}) != 1:
            raise ConfigurationError("need at least one user, all with the same path count")
        # the users' direction cosines and path gains stacked, each (K, L), for
        # the batched channel_matrix and the solver's geometry cache
        object.__setattr__(self, "_stacked", tuple(np.stack(rows) for rows in zip(
            *((*ps.direction_cosines, ps.path_gains) for ps in self.paths))))
        # the solver's tables of this channel, per wavelength, each built by
        # the first solve that needs it (``solver._Geometry``)
        object.__setattr__(self, "_geometry", {})

    @property
    def num_users(self) -> int:
        return len(self.paths)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "noise_variance": self.noise_variance,
            "users": [
                {
                    "elevation_aods": ps.elevation_aods.tolist(),
                    "azimuth_aods": ps.azimuth_aods.tolist(),
                    "path_gains": _encode_complex(ps.path_gains),
                }
                for ps in self.paths
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ChannelRealization":
        paths = tuple(
            PathSet(
                elevation_aods=np.array(u["elevation_aods"], dtype=float),
                azimuth_aods=np.array(u["azimuth_aods"], dtype=float),
                path_gains=_decode_complex(u["path_gains"]),
            )
            for u in doc["users"]
        )
        return cls(paths=paths, noise_variance=doc["noise_variance"], seed=doc.get("seed"))


def channel_matrix(positions: np.ndarray, realization: ChannelRealization,
                   wavelength: float = DEFAULT_WAVELENGTH) -> np.ndarray:
    """The channel matrix H (K, M): h_k(t_m) = sum_p f_kp exp(-j 2 pi rho_kp(t_m)
    / lambda), rho = x sin(theta) cos(phi) + y cos(theta). All users at once,
    on a (K, M, L) phase array with one matrix-vector product per user, so
    every row has the bits of that user's channel computed alone.
    """
    ax, ay, gains = realization._stacked
    pts = np.atleast_2d(np.asarray(positions, dtype=float))
    rho = pts[None, :, 0, None] * ax[:, None, :] + pts[None, :, 1, None] * ay[:, None, :]
    return (np.exp(-1j * (2.0 * np.pi / wavelength) * rho) @ gains[:, :, None])[:, :, 0]


def _signal_interference(couplings: np.ndarray):
    """Per-user signal |h_k^H p_k|^2 and interference sum_{j != k} |h_k^H p_j|^2
    from the (K, K) couplings, row k holding h_k^H p_j."""
    gains = np.abs(couplings)
    gains *= gains
    signal = gains.diagonal().copy()
    # off-diagonal sum, not rowsum-minus-diagonal: the latter cancels
    # catastrophically when the signal term dominates
    gains.flat[::gains.shape[0] + 1] = 0.0
    return signal, gains.sum(axis=1)


def sinr_all(precoder: np.ndarray, H: np.ndarray, noise_variance: float) -> np.ndarray:
    """All K SINRs from a precomputed channel matrix H (K, M)."""
    signal, interference = _signal_interference(H.conj() @ precoder)
    return signal / (interference + noise_variance)


def min_weighted_sinr(precoder: np.ndarray, H: np.ndarray, noise_variance: float,
                      weights: np.ndarray) -> float:
    return float(np.min(sinr_all(precoder, H, noise_variance) / np.asarray(weights, dtype=float)))


def sample_channel(rng_seed: int, M: int, K: int, L: int,
                   noise_variance: float = DEFAULT_NOISE_W) -> ChannelRealization:
    """Draw one channel realization.

    AoDs are i.i.d. Uniform[0, pi] (elevation and azimuth independently),
    path gains are circularly-symmetric CN(0, 1). Deterministic per seed.
    """
    if M < 1 or K < 1 or L < 1 or rng_seed < 0:
        raise ConfigurationError(f"invalid seed {rng_seed} or dimensions M={M}, K={K}, L={L}")
    rng = np.random.default_rng(rng_seed)
    paths = []
    for _ in range(K):
        theta = rng.uniform(0.0, np.pi, size=L)
        phi = rng.uniform(0.0, np.pi, size=L)
        gains = (rng.standard_normal(L) + 1j * rng.standard_normal(L)) / np.sqrt(2.0)
        paths.append(PathSet(theta, phi, gains))
    return ChannelRealization(paths=tuple(paths), noise_variance=noise_variance, seed=rng_seed)


def uniform_line_layout(M: int, region: Region) -> np.ndarray:
    """Wavelength/2-spaced line of M antennas centered on the x-axis of S."""
    spacing = region.wavelength / 2.0
    span = (M - 1) * spacing
    if span > 2.0 * region.half_width_m:
        raise ConfigurationError(
            f"line of {M} antennas at spacing {spacing:g} m does not fit in the region")
    x = (np.arange(M) - (M - 1) / 2.0) * spacing
    return np.column_stack([x, np.zeros(M)])


def aps_grid(region: Region) -> np.ndarray:
    """The region's half-wavelength lattice: the largest centered square of
    points spaced lambda/2 that fits in S, in (x, y) order. Its coordinates
    are exact multiples s k of the step (k integer or half-integer), so the
    lattice is symmetric under x -> -x and y -> -y, and any two distinct
    points are at least lambda/2 apart."""
    s = region.wavelength / 2.0
    n = int(math.floor(4.0 * region.half_width + 1e-9)) + 1
    coords = s * (np.arange(n) - (n - 1) / 2.0)
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def min_pairwise_distance(positions: np.ndarray) -> float:
    pts = np.atleast_2d(np.asarray(positions, dtype=float))
    if pts.shape[0] < 2:
        return np.inf
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=-1))
    iu = np.triu_indices(pts.shape[0], k=1)
    return float(dist[iu].min())


def layout_is_feasible(positions: np.ndarray, region: Region, min_distance: float,
                       tol: float = 1e-9) -> bool:
    return region.contains(positions, tol=tol) and min_pairwise_distance(positions) >= min_distance - tol
