"""Birefringence models against frozen oracle values and their sign structure.

Oracle values were computed with mpmath at 50 significant digits from
CODATA-2018 inputs before the implementation was written; the gamma-constant
and chi oracles are re-evaluated here in arbitrary precision.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from vmbsim.constants import convert_pressure
from vmbsim.models import (
    GAS_TABLE,
    MCP_LARGE_CHI_K,
    AlpParams,
    McpParams,
    NonlinearLagrangianParams,
    alp_deltan,
    alp_deltan_large_mass,
    alp_deltan_small_mass,
    alp_oscillation_factor,
    cotton_mouton_deltan,
    deltan_from_lagrangian,
    equivalent_pressure,
    gas_species,
    mcp_chi,
    mcp_deltan,
    mcp_unitary_birefringence,
    mcp_unitary_prefactor,
    photon_photon_cross_section,
    qed_unitary_birefringence,
)

OMEGA_1064 = 1.165265022  # eV, photon energy at 1064 nm


class TestLagrangian:
    def test_qed_preset_etas(self):
        p = NonlinearLagrangianParams.qed()
        alpha_45pi = 7.2973525693e-3 / (45.0 * math.pi)
        assert p.eta1 == pytest.approx(alpha_45pi, rel=1e-12)
        assert p.eta1 == pytest.approx(4.0 / 7.0 * p.eta2, rel=1e-12)

    def test_qed_deltan_u(self):
        assert NonlinearLagrangianParams.qed().deltan_u == pytest.approx(3.97e-24, rel=5e-3,
                                                                         abs=0.0)

    def test_symmetric_lagrangian_gives_zero(self):
        p = NonlinearLagrangianParams(eta1=0.123, eta2=0.123)
        for b in (0.0, 1.0, 7.5):
            assert deltan_from_lagrangian(p, b) == 0.0

    def test_qed_at_2p5_tesla(self):
        dn = deltan_from_lagrangian(NonlinearLagrangianParams.qed(), 2.5)
        assert dn == pytest.approx(2.48e-23, rel=5e-3, abs=0.0)

    @given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    def test_even_in_field(self, b):
        p = NonlinearLagrangianParams.qed()
        assert deltan_from_lagrangian(p, b) == deltan_from_lagrangian(p, -b)


class TestQedUnitaryBirefringence:
    def test_value(self):
        # mpmath oracle: 3.97400598419e-24
        assert qed_unitary_birefringence() == pytest.approx(3.974005984e-24, rel=1e-8, abs=0.0)
        assert qed_unitary_birefringence() == pytest.approx(3.97e-24, rel=5e-3, abs=0.0)

    def test_cubic_in_compton_wavelength(self):
        from vmbsim.constants import CONSTANTS

        # doubling lam_e with the other factors held fixed scales the result by 8
        k = CONSTANTS
        def formula(lam):
            return (2.0 / (15.0 * k.vacuum_permeability) * k.fine_structure_alpha**2
                    * lam**3 / (k.electron_mass_energy_ev * k.elementary_charge))

        lam = k.reduced_compton_wavelength_e
        assert formula(2.0 * lam) == pytest.approx(8.0 * formula(lam), rel=1e-12, abs=0.0)
        assert formula(lam) == pytest.approx(qed_unitary_birefringence(), rel=1e-12, abs=0.0)

    def test_mass_scaling_through_derived_wavelength(self):
        from vmbsim.constants import CONSTANTS

        # the MCP prefactor at the electron mass is the QED value; halving the mass doubles
        # lam and scales lam^3/(mc^2) by 16
        m_e = CONSTANTS.electron_mass_energy_ev
        assert mcp_unitary_prefactor(m_e) == pytest.approx(qed_unitary_birefringence(), rel=1e-12,
                                                           abs=0.0)
        assert mcp_unitary_prefactor(m_e / 2) == pytest.approx(
            16.0 * qed_unitary_birefringence(), rel=1e-12, abs=0.0
        )

    def test_consistent_with_lagrangian_route(self):
        a = qed_unitary_birefringence()
        b = NonlinearLagrangianParams.qed().deltan_u
        assert a == pytest.approx(b, rel=1e-3, abs=0.0)


class TestGasTable:
    def test_exactly_six_gases_with_signs(self):
        expected = {
            "He": 2.1e-16, "Ar": 7e-15, "H2O": 6.7e-15,
            "CH4": 1.6e-14, "O2": -2.5e-12, "N2": -2.5e-13,
        }
        assert {g: s.deltan_u for g, s in GAS_TABLE.items()} == expected

    def test_unknown_gas(self):
        with pytest.raises(KeyError, match="unknown gas"):
            gas_species("Xe")

    def test_helium_calibration_point(self):
        p = convert_pressure(32.0, "ubar", "atm")
        dn = cotton_mouton_deltan("He", p, 2.5)
        # the quoted 3.9e-20 is rounded; Table coefficients give 4.14e-20
        assert dn == pytest.approx(3.9e-20, rel=0.10, abs=0.0)

    def test_zero_pressure(self):
        for gas in GAS_TABLE.values():
            assert cotton_mouton_deltan(gas, 0.0, 2.5) == 0.0

    def test_oxygen_spot_value(self):
        assert cotton_mouton_deltan("O2", 1e-6, 1.0) == pytest.approx(-2.5e-18, rel=1e-12, abs=0.0)

    @given(
        st.sampled_from(sorted(GAS_TABLE)),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    )
    def test_linear_in_pressure(self, gas, p, b):
        assert cotton_mouton_deltan(gas, 2.0 * p, b) == pytest.approx(
            2.0 * cotton_mouton_deltan(gas, p, b), rel=1e-12, abs=1e-300
        )


class TestEquivalentPressure:
    # mpmath oracle values (mbar): computed from Eq-3 Delta n_u / Table coefficients
    ORACLE = {
        "He": 1.91746e-5, "Ar": 5.75237e-7, "H2O": 6.00994e-7,
        "CH4": 2.51666e-7, "O2": 1.61066e-9, "N2": 1.61066e-8,
    }
    TABLE = {"He": 2e-5, "Ar": 6e-7, "H2O": 6e-7, "CH4": 3e-7, "O2": 2e-9, "N2": 2e-8}

    def test_oracle_values(self):
        for gas, expected in self.ORACLE.items():
            assert equivalent_pressure(gas) == pytest.approx(expected, rel=1e-4, abs=0.0)

    def test_matches_published_table_at_one_sigfig(self):
        for gas, published in self.TABLE.items():
            p = equivalent_pressure(gas)
            exponent = math.floor(math.log10(p))
            rounded = round(p / 10**exponent) * 10**exponent
            assert rounded == pytest.approx(published, rel=1e-9, abs=0.0), gas

    def test_unit_ratio_gas(self):
        from vmbsim.models import GasSpecies

        gas = GasSpecies("unit", qed_unitary_birefringence())
        assert equivalent_pressure(gas) == pytest.approx(1013.25, rel=1e-12)

    def test_zero_coefficient_rejected(self):
        from vmbsim.models import GasSpecies

        with pytest.raises(ValueError, match="zero"):
            equivalent_pressure(GasSpecies("null", 0.0))

    def test_consistency_with_cotton_mouton(self):
        # a gas at its equivalent pressure mimics the QED vacuum at any field
        for gas in GAS_TABLE.values():
            p_atm = convert_pressure(equivalent_pressure(gas), "mbar", "atm")
            for b in (1.0, 2.5):
                dn = abs(cotton_mouton_deltan(gas, p_atm, b))
                assert dn == pytest.approx(qed_unitary_birefringence() * b**2, rel=1e-6, abs=0.0)


class TestAlp:
    def _params(self, g=1e-16, m=1e-3):
        return AlpParams(g, m, OMEGA_1064, 1.92)

    def test_zero_coupling(self):
        p = AlpParams(0.0, 1e-3, OMEGA_1064, 1.92)
        assert alp_deltan(p, 2.5) == 0.0

    def test_small_x_matches_taylor_oracle(self):
        # 1 - sin(2x)/(2x) = (2/3)x^2 - (2/15)x^4 + O(x^6)
        for x in (1e-6, 1e-4, 1e-3, 0.01):
            taylor = (2.0 / 3.0) * x**2 - (2.0 / 15.0) * x**4
            assert alp_oscillation_factor(x) == pytest.approx(taylor, rel=1e-4, abs=0.0)

    def test_small_x_limit_formula_within_1pc(self):
        # pick a mass giving x = 0.01
        from vmbsim.constants import NATURAL_UNITS

        l_nat = NATURAL_UNITS.length_to_natural(1.92)
        m = math.sqrt(0.01 * 4.0 * OMEGA_1064 / l_nat)
        p = self._params(m=m)
        assert p.x == pytest.approx(0.01, rel=1e-9)
        assert alp_deltan(p, 2.5) == pytest.approx(alp_deltan_small_mass(p, 2.5), rel=0.01,
                                                   abs=0.0)

    def test_large_x_limit_decade_average_within_1pc(self):
        from vmbsim.constants import NATURAL_UNITS

        l_nat = NATURAL_UNITS.length_to_natural(1.92)
        ratios = []
        for x in np.logspace(math.log10(100.0), math.log10(1000.0), 64):
            m = math.sqrt(x * 4.0 * OMEGA_1064 / l_nat)
            p = self._params(m=m)
            ratios.append(alp_deltan(p, 2.5) / alp_deltan_large_mass(p, 2.5))
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.01)

    def test_nonnegative_factor(self):
        for x in np.linspace(0.0, 50.0, 2001):
            assert alp_oscillation_factor(x) >= 0.0

    def test_continuous_at_zero(self):
        assert alp_oscillation_factor(0.0) == 0.0
        assert alp_oscillation_factor(1e-12) == pytest.approx(0.0, abs=1e-20)

    def test_factor_of_an_array_is_each_element_s_factor(self):
        x = np.concatenate(([0.0, 1e-12, 1e-4], np.logspace(-6, 4, 401)))
        factors = alp_oscillation_factor(x)
        assert factors.shape == x.shape
        assert factors.tolist() == [alp_oscillation_factor(v) for v in x.tolist()]
        assert type(alp_oscillation_factor(0.5)) is float
        assert alp_oscillation_factor(0.5) == 1.0 - math.sin(1.0)
        with pytest.raises(ValueError, match="x must be >= 0, got -2.0"):
            alp_oscillation_factor(np.array([1.0, -1.0, -2.0]))

    @given(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False))
    def test_even_in_field(self, b):
        p = self._params()
        assert alp_deltan(p, b) == alp_deltan(p, -b)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            AlpParams(1e-16, 0.0, OMEGA_1064, 1.92)
        with pytest.raises(ValueError):
            AlpParams(1e-16, 1e-3, OMEGA_1064, -1.0)


class TestMcp:
    def test_large_chi_constant_vs_arbitrary_precision(self):
        mp.mp.dps = 40
        oracle = (
            mp.sqrt(mp.pi) * mp.power(2, mp.mpf(1) / 3)
            * mp.gamma(mp.mpf(2) / 3) ** 2 / mp.gamma(mp.mpf(1) / 6)
        )
        assert abs(MCP_LARGE_CHI_K - float(oracle)) < 1e-6
        assert MCP_LARGE_CHI_K == pytest.approx(0.7356367107251499, rel=1e-12)

    def test_chi_spot_value(self):
        # mpmath oracle (SI evaluation): 0.258442757408
        p = McpParams(1e-6, 0.1, 1.165)
        assert mcp_chi(p, 2.5) == pytest.approx(0.258442757408, rel=1e-9)

    def test_chi_linear_in_epsilon_and_field(self):
        p1 = McpParams(1e-7, 0.05, OMEGA_1064)
        p2 = McpParams(2e-7, 0.05, OMEGA_1064)
        assert mcp_chi(p2, 2.5) == pytest.approx(2.0 * mcp_chi(p1, 2.5), rel=1e-12)
        assert mcp_chi(p1, 0.0) == 0.0
        assert mcp_chi(p1, 5.0) == pytest.approx(2.0 * mcp_chi(p1, 2.5), rel=1e-12)

    def test_chi_mass_scaling(self):
        p1 = McpParams(1e-7, 0.05, OMEGA_1064)
        p2 = McpParams(1e-7, 0.1, OMEGA_1064)
        assert mcp_chi(p1, 2.5) == pytest.approx(8.0 * mcp_chi(p2, 2.5), rel=1e-12)

    def test_scalar_is_minus_half_fermion_small_chi(self):
        f = McpParams(1e-9, 0.5, OMEGA_1064, "fermion")
        s = McpParams(1e-9, 0.5, OMEGA_1064, "scalar")
        vf, rf = mcp_deltan(f, 2.5)
        vs, rs = mcp_deltan(s, 2.5)
        assert rf == rs == "small-chi"
        assert vs == pytest.approx(-0.5 * vf, rel=1e-12, abs=0.0)

    def test_zero_charge(self):
        p = McpParams(0.0, 0.1, OMEGA_1064)
        value, regime = mcp_deltan(p, 2.5)
        assert value == 0.0
        assert mcp_unitary_birefringence(p) == 0.0

    def test_sign_structure_flips_between_regimes(self):
        # small chi: fermion +, scalar -; large chi: fermion -, scalar +
        small_f = mcp_deltan(McpParams(1e-9, 0.5, OMEGA_1064, "fermion"), 2.5)
        small_s = mcp_deltan(McpParams(1e-9, 0.5, OMEGA_1064, "scalar"), 2.5)
        large_f = mcp_deltan(McpParams(0.5, 1e-3, OMEGA_1064, "fermion"), 2.5)
        large_s = mcp_deltan(McpParams(0.5, 1e-3, OMEGA_1064, "scalar"), 2.5)
        assert small_f[1] == "small-chi" and large_f[1] == "large-chi"
        assert small_f[0] > 0 > small_s[0]
        assert large_f[0] < 0 < large_s[0]

    def test_gap_requires_override(self):
        p = McpParams(1e-7, 0.02, OMEGA_1064)
        chi = mcp_chi(p, 2.5)
        assert 0.1 <= chi <= 10.0
        with pytest.raises(ValueError, match="crossover band"):
            mcp_deltan(p, 2.5)
        value, regime = mcp_deltan(p, 2.5, allow_gap=True)
        assert regime == "gap"
        assert math.isfinite(value)

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            McpParams(1.5, 0.1, OMEGA_1064)
        with pytest.raises(ValueError):
            McpParams(-0.1, 0.1, OMEGA_1064)
        with pytest.raises(ValueError):
            McpParams(1e-6, 0.1, OMEGA_1064, "boson")


class TestPhotonPhotonCrossSection:
    def test_qed_prediction(self):
        # mpmath oracle at the computed Eq-3 value: 1.818822819e-69 m^2
        sigma = photon_photon_cross_section(qed_unitary_birefringence(), OMEGA_1064)
        assert sigma == pytest.approx(1.818822819e-69, rel=1e-6, abs=0.0)
        assert sigma == pytest.approx(1.84e-69, rel=0.02, abs=0.0)

    def test_zero(self):
        assert photon_photon_cross_section(0.0, OMEGA_1064) == 0.0

    def test_published_bound_reproduced_by_one_sigma_value(self):
        # Delta n_u = 2.0e-22 (the 1-sigma error of the headline result) reproduces
        # the published 4.6e-66 m^2; mpmath oracle 4.606736292e-66
        sigma = photon_photon_cross_section(2.0e-22, OMEGA_1064)
        assert sigma == pytest.approx(4.606736292e-66, rel=1e-6, abs=0.0)
        assert sigma == pytest.approx(4.6e-66, rel=0.05, abs=0.0)

    def test_scaling(self):
        s1 = photon_photon_cross_section(1e-23, OMEGA_1064)
        assert photon_photon_cross_section(2e-23, OMEGA_1064) == pytest.approx(4 * s1, rel=1e-12,
                                                                               abs=0.0)
        assert photon_photon_cross_section(1e-23, 2 * OMEGA_1064) == pytest.approx(
            64 * s1, rel=1e-12, abs=0.0
        )

    def test_validity_warning(self):
        with pytest.warns(UserWarning, match="validity"):
            photon_photon_cross_section(1e-23, 1e5)
