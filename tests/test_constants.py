"""Unit conversions, derived constants and their invariants."""

import math

import pytest
from hypothesis import given, strategies as st

from vmbsim.constants import (
    CONSTANTS,
    MBAR_PER_ATM,
    NATURAL_UNITS,
    cavity_amplification,
    convert_field,
    convert_pressure,
)


def test_critical_field_value():
    # m_e^2 c^2/(e hbar), arbitrary-precision oracle: 4.414005221e9 T
    assert CONSTANTS.critical_field == pytest.approx(4.414005221e9, rel=1e-8)
    assert CONSTANTS.critical_field == pytest.approx(4.4e9, rel=0.01)


def test_constants_immutable():
    with pytest.raises(AttributeError):
        CONSTANTS.light_speed = 1.0


def test_reduced_compton_wavelength():
    # oracle: 3.86159267721e-13 m
    assert CONSTANTS.reduced_compton_wavelength_e == pytest.approx(3.86159267721e-13, rel=1e-9,
                                                                   abs=0.0)


def test_photon_energy_1064nm():
    # oracle: 1.165265022 eV
    assert CONSTANTS.photon_energy_ev(1064e-9) == pytest.approx(1.165265022, rel=1e-8)
    with pytest.raises(ValueError):
        CONSTANTS.photon_energy_ev(0.0)


class TestConvertField:
    def test_one_tesla(self):
        assert convert_field(1.0) == pytest.approx(195.0)

    def test_zero(self):
        assert convert_field(0.0) == 0.0

    def test_linear_scaling(self):
        assert convert_field(2.5) == pytest.approx(487.5)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            convert_field(float("nan"))
        with pytest.raises(ValueError):
            convert_field(float("inf"))
        with pytest.raises(ValueError):
            convert_field(-1.0)

    def test_exact_factor_close_to_canonical(self):
        assert NATURAL_UNITS.tesla_to_ev2_exact == pytest.approx(195.35, rel=1e-3)
        assert NATURAL_UNITS.meter_to_inverse_ev_exact == pytest.approx(5.068e6, rel=1e-3)

    @given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_round_trip(self, b):
        back = NATURAL_UNITS.field_to_natural(b) / NATURAL_UNITS.tesla_to_ev2
        assert back == pytest.approx(b, rel=1e-12, abs=1e-300)

    @given(st.floats(min_value=0.0, max_value=1e6), st.floats(min_value=0.0, max_value=1e6))
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert convert_field(lo) <= convert_field(hi)


class TestConvertPressure:
    def test_atm_to_mbar_definition(self):
        assert convert_pressure(1.0, "atm", "mbar") == pytest.approx(1013.25)

    def test_32_ubar_in_atm(self):
        assert convert_pressure(32.0, "ubar", "atm") == pytest.approx(3.158154e-5, rel=1e-6)

    def test_low_mbar_in_atm(self):
        assert convert_pressure(2e-5, "mbar", "atm") == pytest.approx(1.9738465e-8, rel=1e-6,
                                                                         abs=0.0)

    def test_unknown_unit(self):
        with pytest.raises(ValueError, match="unknown pressure unit"):
            convert_pressure(1.0, "psi", "atm")
        with pytest.raises(ValueError, match="unknown pressure unit"):
            convert_pressure(1.0, "atm", "torr")

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            convert_pressure(-1.0, "atm", "mbar")

    @given(
        st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
        st.sampled_from(["atm", "mbar", "ubar"]),
        st.sampled_from(["atm", "mbar", "ubar"]),
    )
    def test_round_trip(self, p, u1, u2):
        back = convert_pressure(convert_pressure(p, u1, u2), u2, u1)
        assert back == pytest.approx(p, rel=1e-12, abs=1e-300)

    def test_identity(self):
        assert convert_pressure(0.37, "mbar", "mbar") == 0.37

    def test_mbar_per_atm_constant(self):
        assert MBAR_PER_ATM == 1013.25


class TestCavityAmplification:
    def test_instrument_finesse(self):
        assert cavity_amplification(6.7e5) == pytest.approx(4.3e5, rel=0.01)

    def test_unit_case(self):
        assert cavity_amplification(math.pi / 2.0) == pytest.approx(1.0, rel=1e-12)

    def test_exact_value(self):
        assert abs(cavity_amplification(670000.0) - 426535.0) <= 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cavity_amplification(0.0)
        with pytest.raises(ValueError):
            cavity_amplification(-1.0)
