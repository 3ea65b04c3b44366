"""Desk-scale ring phantom: sources, simplified lead field, calibrated noise.

Generators sit on an inner circle, sensors on an outer circle.  The lead
field entry for sensor e and generator i is the potential of a radially
oriented point dipole in an unbounded homogeneous medium,

    K[e, i] = (r_e - r_i) . n_i / ||r_e - r_i||**3,

a documented stand-in for a layered-head forward model.  Three sources
are placed by default: a single generator with a narrow Gaussian pulse,
a five-generator block with a sinusoidal course, and a spatially Gaussian
patch (truncated at 1% of its peak) with a second sinusoid.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DomainError


@dataclass(frozen=True)
class SourceSpec:
    """Locations (fractions of the ring), widths, and time courses."""

    a_center: float = 0.15
    a_amplitude: float = 1.0
    a_peak_time: float = 0.30  # fraction of the record
    a_sigma_time: float = 0.03  # fraction of the record

    b_center: float = 0.45
    b_width: int = 5
    b_amplitude: float = 1.0
    b_freq: float = 7.0
    b_phase: float = 0.6

    c_center: float = 0.75
    c_sigma_space: float = 4.0  # generators
    c_amplitude: float = 1.0
    c_freq: float = 11.0
    c_phase: float = 1.1
    c_truncate_frac: float = 0.01


@dataclass(frozen=True)
class NoiseSpec:
    peak_snr_db: float = 42.0
    seed: int = 0


@dataclass(frozen=True)
class RingPhantom:
    S: int
    N: int
    T: int
    generator_positions: np.ndarray  # (S, 2)
    electrode_positions: np.ndarray  # (N, 2)
    K: np.ndarray  # (N, S)
    J_true: np.ndarray  # (S, T)
    support_true: np.ndarray  # (S, T) bool
    times: np.ndarray  # (T,)
    source_spec: SourceSpec = field(default_factory=SourceSpec)

    @property
    def V_clean(self):
        return self.K @ self.J_true


def _ring_points(count, radius):
    angles = 2.0 * np.pi * np.arange(count) / count
    return radius * np.column_stack([np.cos(angles), np.sin(angles)])


def dipole_lead_field(generator_positions, electrode_positions):
    """Radial point-dipole potentials in an unbounded homogeneous medium."""
    gen = np.asarray(generator_positions, dtype=float)
    ele = np.asarray(electrode_positions, dtype=float)
    radii = np.linalg.norm(gen, axis=1)
    if np.any(radii == 0):
        raise DomainError("generators must not sit at the origin (radial orientation undefined)")
    normals = gen / radii[:, None]
    diff = ele[:, None, :] - gen[None, :, :]  # (N, S, 2)
    dist = np.linalg.norm(diff, axis=2)
    if np.any(dist == 0):
        raise DomainError("an electrode coincides with a generator")
    K = np.einsum("nsd,sd->ns", diff, normals) / dist**3
    return K


def make_phantom(S=200, N=31, T=64, source_spec=None, r_generators=0.65, r_electrodes=1.0,
                 duration=1.0):
    """Assemble the ring phantom: geometry, lead field, and ground truth.

    Requires S >= 20, N >= 4, T >= 8 and pairwise disjoint source patches.
    """
    if S < 20 or N < 4 or T < 8:
        raise ConfigError(f"phantom needs S >= 20, N >= 4, T >= 8 (got {S}, {N}, {T})")
    if r_electrodes <= r_generators:
        raise ConfigError("electrode radius must exceed generator radius")
    spec = source_spec or SourceSpec()

    gen = _ring_points(S, r_generators)
    ele = _ring_points(N, r_electrodes)
    K = dipole_lead_field(gen, ele)
    if np.any(np.linalg.norm(K, axis=0) == 0.0):
        raise ConfigError("lead field has a zero column")

    times = duration * np.arange(T) / T
    J = np.zeros((S, T))

    idx_a = int(round(spec.a_center * S)) % S
    course_a = spec.a_amplitude * np.exp(
        -((times - spec.a_peak_time * duration) ** 2) / (2 * (spec.a_sigma_time * duration) ** 2)
    )
    J[idx_a, :] += course_a

    idx_b0 = int(round(spec.b_center * S)) % S
    idx_b = [(idx_b0 + j) % S for j in range(spec.b_width)]
    course_b = spec.b_amplitude * np.sin(2 * np.pi * spec.b_freq * times + spec.b_phase)
    for i in idx_b:
        J[i, :] += course_b

    idx_c0 = int(round(spec.c_center * S)) % S
    offsets = np.arange(S)
    ring_dist = np.minimum(np.abs(offsets - idx_c0), S - np.abs(offsets - idx_c0))
    profile = np.exp(-(ring_dist**2) / (2 * spec.c_sigma_space**2))
    profile[profile < spec.c_truncate_frac * profile.max()] = 0.0
    course_c = spec.c_amplitude * np.sin(2 * np.pi * spec.c_freq * times + spec.c_phase)
    idx_c = set(np.flatnonzero(profile).tolist())
    overlap = (idx_c & set(idx_b)) | (idx_c & {idx_a}) | ({idx_a} & set(idx_b))
    if overlap:
        raise ConfigError(f"source patches overlap at generators {sorted(overlap)}")
    J[profile > 0, :] += np.outer(profile[profile > 0], course_c)

    support = J != 0.0
    return RingPhantom(
        S=S, N=N, T=T,
        generator_positions=gen, electrode_positions=ele,
        K=K, J_true=J, support_true=support, times=times, source_spec=spec,
    )


def add_noise(V_clean, noise=NoiseSpec()):
    """Add white Gaussian noise calibrated to a peak signal-to-noise ratio.

    sigma = max|V_clean| * 10^(-peak_snr_db/20).  An infinite peak_snr_db
    returns the clean signal unchanged.  Bit-reproducible per seed.
    """
    V = np.asarray(V_clean, dtype=float)
    peak = float(np.max(np.abs(V)))
    if peak == 0.0:
        raise DomainError("V_clean is all zeros; peak SNR is undefined")
    if np.isinf(noise.peak_snr_db):
        return V.copy(), 0.0
    sigma = peak * 10.0 ** (-noise.peak_snr_db / 20.0)
    rng = np.random.default_rng(noise.seed)
    return V + sigma * rng.standard_normal(V.shape), sigma


SNR_PRESETS_DB = (42.0, 38.0, 34.0)
