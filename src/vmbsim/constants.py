"""Physical constants and the small set of unit conversions the toolchain needs.

SI values are CODATA-2018. The natural-unit (Heaviside-Lorentz) factors are
deliberately the rounded canonical values 195 eV^2/T and 5.06e6 eV^-1/m used
throughout the exclusion-curve literature, so that computed curves follow that
convention; the exact factors derived from the constants are available for
cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# 1 atm = 1013.25 mbar by definition; 1 mbar = 1000 ubar.
MBAR_PER_ATM = 1013.25
_PRESSURE_IN_ATM = {"atm": 1.0, "mbar": 1.0 / MBAR_PER_ATM, "ubar": 1.0 / (MBAR_PER_ATM * 1e3)}


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-2018 constants plus the derived quantities used by the models."""

    fine_structure_alpha: float = 7.2973525693e-3
    electron_mass_energy_ev: float = 510998.95000      # m_e c^2
    vacuum_permeability: float = 1.25663706212e-6      # N A^-2
    planck_reduced: float = 1.054571817e-34            # J s
    light_speed: float = 299792458.0                   # m s^-1 (exact)
    elementary_charge: float = 1.602176634e-19         # C (exact)

    @property
    def electron_mass_kg(self) -> float:
        return self.electron_mass_energy_ev * self.elementary_charge / self.light_speed**2

    @property
    def reduced_compton_wavelength_e(self) -> float:
        """hbar/(m_e c), in m."""
        return self.planck_reduced / (self.electron_mass_kg * self.light_speed)

    @property
    def critical_field(self) -> float:
        """B_crit = m_e^2 c^2/(e hbar) ~ 4.4e9 T, the field scale of the nonlinear vacuum."""
        m = self.electron_mass_kg
        return m**2 * self.light_speed**2 / (self.elementary_charge * self.planck_reduced)

    @property
    def xi(self) -> float:
        """1/B_crit^2, prefactor of the nonlinear Lagrangian correction (T^-2)."""
        return 1.0 / self.critical_field**2

    def photon_energy_ev(self, wavelength_m: float) -> float:
        """Photon energy 2*pi*hbar*c/lambda, in eV."""
        if not (math.isfinite(wavelength_m) and wavelength_m > 0):
            raise ValueError(f"wavelength must be positive and finite, got {wavelength_m}")
        return 2.0 * math.pi * self.planck_reduced * self.light_speed / (
            wavelength_m * self.elementary_charge
        )


CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class NaturalUnitConverter:
    """SI <-> natural Heaviside-Lorentz conversions with the canonical rounded factors."""

    tesla_to_ev2: float = 195.0
    meter_to_inverse_ev: float = 5.06e6

    def field_to_natural(self, b_tesla: float) -> float:
        """Magnetic field in T -> eV^2."""
        if not math.isfinite(b_tesla):
            raise ValueError(f"field must be finite, got {b_tesla}")
        return b_tesla * self.tesla_to_ev2

    def length_to_natural(self, l_m: float) -> float:
        """Length in m -> eV^-1."""
        if not math.isfinite(l_m):
            raise ValueError(f"length must be finite, got {l_m}")
        return l_m * self.meter_to_inverse_ev

    @property
    def tesla_to_ev2_exact(self) -> float:
        """sqrt(hbar^3 c^3/(e^4 mu0)) = 195.35 eV^2/T, derived from the constants."""
        k = CONSTANTS
        return math.sqrt(
            k.planck_reduced**3 * k.light_speed**3
            / (k.elementary_charge**4 * k.vacuum_permeability)
        )

    @property
    def meter_to_inverse_ev_exact(self) -> float:
        """e/(hbar c) = 5.068e6 eV^-1/m, derived from the constants."""
        k = CONSTANTS
        return k.elementary_charge / (k.planck_reduced * k.light_speed)


NATURAL_UNITS = NaturalUnitConverter()


def convert_field(b_tesla: float) -> float:
    """Magnetic field in tesla -> natural Heaviside-Lorentz units (eV^2)."""
    if not math.isfinite(b_tesla):
        raise ValueError(f"field must be finite, got {b_tesla}")
    if b_tesla < 0:
        raise ValueError(f"field must be >= 0, got {b_tesla}")
    return NATURAL_UNITS.field_to_natural(b_tesla)


def convert_pressure(value: float, from_unit: str, to_unit: str) -> float:
    """Exact linear pressure conversion between atm, mbar and ubar."""
    if from_unit not in _PRESSURE_IN_ATM or to_unit not in _PRESSURE_IN_ATM:
        bad = from_unit if from_unit not in _PRESSURE_IN_ATM else to_unit
        raise ValueError(f"unknown pressure unit {bad!r}; expected one of {sorted(_PRESSURE_IN_ATM)}")
    if not math.isfinite(value):
        raise ValueError(f"pressure must be finite, got {value}")
    if value < 0:
        raise ValueError(f"pressure must be >= 0, got {value}")
    return value * _PRESSURE_IN_ATM[from_unit] / _PRESSURE_IN_ATM[to_unit]


def cavity_amplification(finesse: float) -> float:
    """Number of effective passes N = 2F/pi of a Fabry-Perot with finesse F."""
    if not (math.isfinite(finesse) and finesse > 0):
        raise ValueError(f"finesse must be positive and finite, got {finesse}")
    return 2.0 * finesse / math.pi
