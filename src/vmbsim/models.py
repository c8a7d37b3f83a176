"""Closed-form magnetic-birefringence models.

Every source of a field-induced refractive-index difference the toolchain
knows about lives here: the generic nonlinear-electrodynamics vacuum, its
Euler-Heisenberg (QED) special case, the pressure-linear Cotton-Mouton effect
of gases, axion-like particles, and millicharged particles.  All models return
a signed Delta-n; exclusion logic downstream works with |Delta n|.

Conventions: magnetic fields in tesla, pressures in atm, particle masses and
photon energies in eV, ALP couplings in eV^-1 (natural Heaviside-Lorentz
units).  Delta-n itself is dimensionless; "unitary" coefficients Delta-n_u are
per T^2 (and per atm for gases).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .constants import CONSTANTS, MBAR_PER_ATM, NATURAL_UNITS

# Large-chi birefringence coefficient sqrt(pi) 2^(1/3) Gamma(2/3)^2 / Gamma(1/6),
# evaluated from the gamma function at import rather than hard-coded.
MCP_LARGE_CHI_K = (
    math.sqrt(math.pi) * 2.0 ** (1.0 / 3.0) * math.gamma(2.0 / 3.0) ** 2 / math.gamma(1.0 / 6.0)
)

# Crossover band: the regime formulas are asymptotic (chi << 1, chi >> 1)
# and the exclusion branches are disconnected around chi ~ 1.
MCP_GAP_BAND = (0.1, 10.0)

# Signed (small-chi, large-chi) birefringence coefficients in units of
# Delta n_u^(MCP) B^2 (Gies, Jaeckel and Ringwald, PRL 97 (2006) 140402); the
# large-chi one is further multiplied by MCP_LARGE_CHI_K chi^(-4/3).
MCP_COEFFICIENTS = {"fermion": (1.0, -135.0 / 14.0), "scalar": (-0.5, 135.0 / 28.0)}


@dataclass(frozen=True)
class NonlinearLagrangianParams:
    """Parameters of the lowest-order Lorentz-invariant, parity-even nonlinear correction."""

    eta1: float
    eta2: float

    @classmethod
    def qed(cls) -> "NonlinearLagrangianParams":
        """Euler-Heisenberg values: eta1 = (4/7) eta2 = alpha/(45 pi)."""
        eta1 = CONSTANTS.fine_structure_alpha / (45.0 * math.pi)
        return cls(eta1=eta1, eta2=1.75 * eta1)

    @property
    def deltan_u(self) -> float:
        """Unitary vacuum birefringence 2*xi*(eta2 - eta1), in T^-2 (xi of ``CONSTANTS``)."""
        return 2.0 * CONSTANTS.xi * (self.eta2 - self.eta1)


def deltan_from_lagrangian(params: NonlinearLagrangianParams, b_tesla: float) -> float:
    """Vacuum birefringence 2*xi*(eta2-eta1)*B^2 of the generic nonlinear Lagrangian.

    Even in B: only B^2 enters, so negative fields are accepted.
    """
    if not math.isfinite(b_tesla):
        raise ValueError(f"field must be finite, got {b_tesla}")
    return params.deltan_u * b_tesla**2


def qed_unitary_birefringence() -> float:
    """Euler-Heisenberg unitary vacuum birefringence (2/15 mu0) alpha^2 lam_e^3/(m_e c^2), T^-2."""
    me_c2_joule = CONSTANTS.electron_mass_energy_ev * CONSTANTS.elementary_charge
    return (
        2.0
        / (15.0 * CONSTANTS.vacuum_permeability)
        * CONSTANTS.fine_structure_alpha**2
        * CONSTANTS.reduced_compton_wavelength_e**3
        / me_c2_joule
    )


# ---------------------------------------------------------------------------
# Cotton-Mouton effect of gases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GasSpecies:
    """A gas with its unitary (1 T, 1 atm) Cotton-Mouton birefringence, signed."""

    name: str
    deltan_u: float  # T^-2 atm^-1
    source: str = ""


def _load_gas_table() -> dict[str, GasSpecies]:
    payload = json.loads(
        resources.files("vmbsim.data").joinpath("gas_cotton_mouton.json").read_text()
    )
    table = {}
    for row in payload["gases"]:
        table[row["name"]] = GasSpecies(row["name"], float(row["deltan_u"]), row.get("source", ""))
    return table


GAS_TABLE: dict[str, GasSpecies] = _load_gas_table()


def gas_species(name: str) -> GasSpecies:
    try:
        return GAS_TABLE[name]
    except KeyError:
        raise KeyError(f"unknown gas {name!r}; known: {sorted(GAS_TABLE)}") from None


def cotton_mouton_deltan(gas: GasSpecies | str, pressure_atm: float, b_tesla: float) -> float:
    """Gas birefringence deltan_u * P * B^2; linear in pressure, even in B."""
    if isinstance(gas, str):
        gas = gas_species(gas)
    if not (math.isfinite(pressure_atm) and pressure_atm >= 0):
        raise ValueError(f"pressure must be >= 0 and finite, got {pressure_atm}")
    if not math.isfinite(b_tesla):
        raise ValueError(f"field must be finite, got {b_tesla}")
    return gas.deltan_u * pressure_atm * b_tesla**2


def equivalent_pressure(gas: GasSpecies | str) -> float:
    """Pressure (mbar) at which the gas mimics the QED vacuum birefringence."""
    if isinstance(gas, str):
        gas = gas_species(gas)
    if gas.deltan_u == 0.0:
        raise ValueError(f"gas {gas.name!r} has zero Cotton-Mouton coefficient")
    p_atm = abs(qed_unitary_birefringence() / gas.deltan_u)
    return p_atm * MBAR_PER_ATM


# ---------------------------------------------------------------------------
# Axion-like particles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlpParams:
    """ALP-two-photon coupling model inputs (natural units where noted)."""

    coupling_inv_ev: float      # g_a, eV^-1
    mass_ev: float              # m_a
    photon_energy_ev: float     # omega
    field_length_m: float       # L, magnetic-field region length

    def __post_init__(self):
        for field_name in ("coupling_inv_ev", "mass_ev", "photon_energy_ev", "field_length_m"):
            v = getattr(self, field_name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{field_name} must be >= 0 and finite, got {v}")
        if self.mass_ev <= 0 or self.photon_energy_ev <= 0 or self.field_length_m <= 0:
            raise ValueError("mass, photon energy and field length must be strictly positive")

    @property
    def x(self) -> float:
        """Phase-mismatch parameter L*m^2/(4*omega), dimensionless."""
        l_nat = NATURAL_UNITS.length_to_natural(self.field_length_m)
        return l_nat * self.mass_ev**2 / (4.0 * self.photon_energy_ev)


def alp_oscillation_factor(x):
    """1 - sin(2x)/(2x), continuous at x=0; >= 0 for all x >= 0.

    Takes a float or an array of them, and returns a float or an array.
    """
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise ValueError(f"x must be >= 0, got {x.min()}")
    with np.errstate(divide="ignore", invalid="ignore"):
        # the series avoids the 1 - sinc cancellation: (2/3)x^2 - (2/15)x^4 + O(x^6)
        factor = np.where(x < 1e-4, x * x * (2.0 / 3.0 - (2.0 / 15.0) * x * x),
                          1.0 - np.sin(2.0 * x) / (2.0 * x))
    return factor if factor.ndim else float(factor)


def alp_deltan(params: AlpParams, b_tesla: float) -> float:
    """Full ALP-induced birefringence g^2 B^2/(2 m^2) * (1 - sin(2x)/(2x))."""
    b_nat = NATURAL_UNITS.field_to_natural(abs(b_tesla))
    return (
        params.coupling_inv_ev**2
        * b_nat**2
        / (2.0 * params.mass_ev**2)
        * alp_oscillation_factor(params.x)
    )


def alp_deltan_small_mass(params: AlpParams, b_tesla: float) -> float:
    """Small-x (x << 1) limit g^2 B^2 m^2 L^2/(48 omega^2)."""
    b_nat = NATURAL_UNITS.field_to_natural(abs(b_tesla))
    l_nat = NATURAL_UNITS.length_to_natural(params.field_length_m)
    return (
        params.coupling_inv_ev**2
        * b_nat**2
        * params.mass_ev**2
        * l_nat**2
        / (48.0 * params.photon_energy_ev**2)
    )


def alp_deltan_large_mass(params: AlpParams, b_tesla: float) -> float:
    """Large-x (x >> 1) limit g^2 B^2/(2 m^2)."""
    b_nat = NATURAL_UNITS.field_to_natural(abs(b_tesla))
    return params.coupling_inv_ev**2 * b_nat**2 / (2.0 * params.mass_ev**2)


# ---------------------------------------------------------------------------
# Millicharged particles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McpParams:
    """Millicharged-particle model inputs."""

    charge_ratio: float        # epsilon = q/e
    mass_energy_ev: float      # m_eps c^2
    photon_energy_ev: float    # hbar omega
    statistics: str = "fermion"  # "fermion" | "scalar"

    def __post_init__(self):
        # epsilon = 0 is allowed as the trivial limit (Delta n = 0).
        if not (math.isfinite(self.charge_ratio) and 0.0 <= self.charge_ratio < 1.0):
            raise ValueError(f"charge ratio must satisfy 0 <= eps < 1, got {self.charge_ratio}")
        if not (math.isfinite(self.mass_energy_ev) and self.mass_energy_ev > 0):
            raise ValueError(f"mass energy must be positive, got {self.mass_energy_ev}")
        if not (math.isfinite(self.photon_energy_ev) and self.photon_energy_ev > 0):
            raise ValueError(f"photon energy must be positive, got {self.photon_energy_ev}")
        if self.statistics not in MCP_COEFFICIENTS:
            raise ValueError(f"statistics must be 'fermion' or 'scalar', got {self.statistics!r}")


def mcp_chi_per_epsilon(mass_energy_ev: float, photon_energy_ev: float, b_tesla: float) -> float:
    """chi/eps: the field-strength parameter stripped of its charge-ratio factor."""
    if not math.isfinite(b_tesla):
        raise ValueError(f"field must be finite, got {b_tesla}")
    mass_joule = mass_energy_ev * CONSTANTS.elementary_charge
    return (
        1.5
        * (photon_energy_ev / mass_energy_ev)
        * CONSTANTS.elementary_charge
        * abs(b_tesla)
        * CONSTANTS.planck_reduced
        * CONSTANTS.light_speed**2
        / mass_joule**2
    )


def mcp_chi(params: McpParams, b_tesla: float) -> float:
    """Field-strength parameter chi = (3/2)(hbar w / m c^2)(eps e B hbar / m^2 c^2).

    Linear in eps and B, proportional to m^-3.
    """
    return params.charge_ratio * mcp_chi_per_epsilon(
        params.mass_energy_ev, params.photon_energy_ev, b_tesla
    )


def mcp_unitary_prefactor(mass_energy_ev: float) -> float:
    """Charge-independent part of Delta n_u^(MCP): (2/15 mu0) alpha^2 lam_eps^3/(m c^2), T^-2."""
    mass_joule = mass_energy_ev * CONSTANTS.elementary_charge
    lam_eps = CONSTANTS.planck_reduced * CONSTANTS.light_speed / mass_joule
    return (
        2.0
        / (15.0 * CONSTANTS.vacuum_permeability)
        * CONSTANTS.fine_structure_alpha**2
        * lam_eps**3
        / mass_joule
    )


def mcp_unitary_birefringence(params: McpParams) -> float:
    """Delta n_u^(MCP) = (2/15 mu0) eps^4 alpha^2 lam_eps^3/(m_eps c^2), in T^-2."""
    return params.charge_ratio**4 * mcp_unitary_prefactor(params.mass_energy_ev)


def mcp_deltan(params: McpParams, b_tesla: float, allow_gap: bool = False) -> tuple[float, str]:
    """Signed MCP birefringence and its regime tag ('small-chi', 'large-chi' or 'gap').

    Inside the crossover band ``MCP_GAP_BAND`` neither asymptotic formula is
    quoted; a value there is only returned with allow_gap=True, evaluated with
    the nearer regime's formula (branch split at chi = 1).
    """
    chi = mcp_chi(params, b_tesla)
    dnu = mcp_unitary_birefringence(params)
    b2 = b_tesla**2
    lo, hi = MCP_GAP_BAND
    if lo <= chi <= hi and chi != 0.0:
        if not allow_gap:
            raise ValueError(
                f"chi = {chi:.4g} lies in the crossover band [{lo:g}, {hi:g}] where no "
                "asymptotic formula applies; pass allow_gap=True to force the nearer regime"
            )
        regime = "gap"
        small = chi < math.sqrt(lo * hi)
    else:
        small = chi < lo
        regime = "small-chi" if small else "large-chi"

    c_small, c_large = MCP_COEFFICIENTS[params.statistics]
    if small or chi == 0.0:
        return c_small * dnu * b2, regime
    return c_large * (MCP_LARGE_CHI_K * chi ** (-4.0 / 3.0) * dnu * b2), regime


# ---------------------------------------------------------------------------
# Photon-photon cross section
# ---------------------------------------------------------------------------

def photon_photon_cross_section(deltan_u: float, photon_energy_ev: float) -> float:
    """Low-energy elastic photon-photon cross section, in m^2.

    sigma = (973 mu0^2 / 180 pi) E^6/(hbar^4 c^4) (Delta n_u)^2, valid for photon
    energies well below the electron mass (a warning is raised otherwise).
    """
    if not math.isfinite(deltan_u):
        raise ValueError(f"deltan_u must be finite, got {deltan_u}")
    if photon_energy_ev <= 0 or not math.isfinite(photon_energy_ev):
        raise ValueError(f"photon energy must be positive, got {photon_energy_ev}")
    if photon_energy_ev > 0.01 * CONSTANTS.electron_mass_energy_ev:
        import warnings

        warnings.warn(
            "photon-photon cross-section formula assumes E_gamma << m_e c^2; "
            f"E = {photon_energy_ev:.3g} eV is outside its validity range",
            stacklevel=2,
        )
    e_joule = photon_energy_ev * CONSTANTS.elementary_charge
    return (
        973.0
        * CONSTANTS.vacuum_permeability**2
        / (180.0 * math.pi)
        * e_joule**6
        / (CONSTANTS.planck_reduced**4 * CONSTANTS.light_speed**4)
        * deltan_u**2
    )
