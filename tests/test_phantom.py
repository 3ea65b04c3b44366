"""Ring phantom generation and noise calibration."""

import numpy as np
import pytest

from rvmix.errors import ConfigError, DomainError
from rvmix.phantom import (
    SNR_PRESETS_DB,
    NoiseSpec,
    SourceSpec,
    add_noise,
    dipole_lead_field,
    make_phantom,
)


class TestMakePhantom:
    def test_shapes_and_support(self):
        ph = make_phantom(S=60, N=12, T=16)
        assert ph.K.shape == (12, 60)
        assert ph.J_true.shape == (60, 16)
        np.testing.assert_array_equal(ph.support_true, ph.J_true != 0.0)

    def test_zero_amplitudes(self):
        spec = SourceSpec(a_amplitude=0.0, b_amplitude=0.0, c_amplitude=0.0,
                          c_sigma_space=2.0)
        ph = make_phantom(S=40, N=8, T=8, source_spec=spec)
        assert np.all(ph.J_true == 0.0)
        assert np.all(ph.V_clean == 0.0)

    def test_truth_sparseness_default(self):
        ph = make_phantom()
        sp = 100.0 * np.mean(ph.J_true == 0.0)
        # geometry dependent, recorded: single + five-block + truncated patch
        active = np.sum(np.any(ph.support_true, axis=1))
        assert sp == pytest.approx(100.0 * (1 - active / ph.S), abs=1e-9)
        assert 70.0 < sp < 95.0

    def test_forward_superposition(self):
        only_a = SourceSpec(b_amplitude=0.0, c_amplitude=0.0, c_sigma_space=2.0)
        only_bc = SourceSpec(a_amplitude=0.0, c_sigma_space=2.0)
        pa = make_phantom(S=50, N=10, T=8, source_spec=only_a)
        pbc = make_phantom(S=50, N=10, T=8, source_spec=only_bc)
        both = make_phantom(S=50, N=10, T=8, source_spec=SourceSpec(c_sigma_space=2.0))
        np.testing.assert_array_equal(pa.J_true + pbc.J_true, both.J_true)
        np.testing.assert_allclose(pa.V_clean + pbc.V_clean, both.V_clean, rtol=1e-13)

    def test_lead_field_columns_nonzero(self):
        ph = make_phantom(S=80, N=16, T=8)
        norms = np.linalg.norm(ph.K, axis=0)
        assert np.all(norms > 0)
        assert np.isfinite(np.linalg.cond(ph.K))

    def test_reproducible_construction(self):
        spec = SourceSpec(c_sigma_space=2.0)
        a = make_phantom(S=44, N=9, T=12, source_spec=spec)
        b = make_phantom(S=44, N=9, T=12, source_spec=spec)
        np.testing.assert_array_equal(a.K, b.K)
        np.testing.assert_array_equal(a.J_true, b.J_true)

    def test_overlap_rejected(self):
        spec = SourceSpec(a_center=0.45)  # lands inside the five-block patch
        with pytest.raises(ConfigError):
            make_phantom(S=40, N=8, T=8, source_spec=spec)

    def test_size_preconditions(self):
        with pytest.raises(ConfigError):
            make_phantom(S=10, N=8, T=8)
        with pytest.raises(ConfigError):
            make_phantom(S=40, N=2, T=8)
        with pytest.raises(ConfigError):
            make_phantom(S=40, N=8, T=4)
        with pytest.raises(ConfigError):
            make_phantom(r_generators=1.2, r_electrodes=1.0)

    @pytest.mark.parametrize("kwargs", [{"duration": 0.0}, {"duration": -1.0},
                                        {"duration": np.inf}, {"r_generators": np.nan},
                                        {"r_electrodes": np.inf}])
    def test_geometry_values_checked(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            make_phantom(S=40, N=8, T=8, **kwargs)

    @pytest.mark.parametrize("kwargs", [{"a_amplitude": np.nan}, {"b_freq": np.inf},
                                        {"c_center": -np.inf}, {"a_sigma_time": 0.0},
                                        {"c_sigma_space": -1.0}, {"b_width": -1},
                                        {"c_truncate_frac": 1.0}, {"c_truncate_frac": -0.1}])
    def test_source_values_checked(self, kwargs):
        with pytest.raises(ConfigError, match=next(iter(kwargs))):
            SourceSpec(**kwargs)

    def test_dipole_kernel_geometry(self):
        gen = np.array([[0.5, 0.0]])
        ele = np.array([[1.0, 0.0], [0.0, 1.0]])
        K = dipole_lead_field(gen, ele)
        # first electrode: distance 0.5 along the dipole axis
        assert K[0, 0] == pytest.approx(0.5 / 0.5**3)
        # second electrode: diff (-0.5, 1), component along x-normal is -0.5
        d = np.sqrt(0.25 + 1.0)
        assert K[1, 0] == pytest.approx(-0.5 / d**3)


class TestAddNoise:
    def test_infinite_snr_sentinel(self):
        V = np.array([[1.0, -2.0]])
        out, sigma = add_noise(V, NoiseSpec(peak_snr_db=np.inf, seed=3))
        np.testing.assert_array_equal(out, V)
        assert sigma == 0.0

    @pytest.mark.parametrize("snr", [np.nan, -np.inf])
    def test_snr_must_be_finite_or_plus_inf(self, snr):
        with pytest.raises(ConfigError, match="peak_snr_db"):
            NoiseSpec(peak_snr_db=snr)

    def test_snr_definition(self):
        V = np.array([[10.0, -20.0]])
        _, sigma = add_noise(V, NoiseSpec(peak_snr_db=42.0, seed=0))
        assert sigma == pytest.approx(20.0 * 10 ** (-2.1), rel=1e-12)

    def test_empirical_noise_sd(self):
        rng = np.random.default_rng(0)
        V = rng.standard_normal((320, 320))  # > 1e5 cells
        noisy, sigma = add_noise(V, NoiseSpec(peak_snr_db=20.0, seed=7))
        eps = noisy - V
        assert np.std(eps) == pytest.approx(sigma, rel=1e-2)

    def test_bit_reproducible(self):
        V = np.random.default_rng(1).standard_normal((8, 5))
        a, _ = add_noise(V, NoiseSpec(38.0, 11))
        b, _ = add_noise(V, NoiseSpec(38.0, 11))
        np.testing.assert_array_equal(a, b)
        c, _ = add_noise(V, NoiseSpec(38.0, 12))
        assert np.any(a != c)

    def test_zero_signal_rejected(self):
        with pytest.raises(DomainError):
            add_noise(np.zeros((3, 3)), NoiseSpec(42.0, 0))

    def test_presets(self):
        assert SNR_PRESETS_DB == (42.0, 38.0, 34.0)
