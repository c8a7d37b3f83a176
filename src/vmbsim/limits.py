"""From a birefringence measurement to physics statements.

Converts a (central, sigma) unitary-birefringence estimate into confidence
bounds, a photon-photon cross-section limit, and exclusion curves for
axion-like and millicharged particles, plus a comparison table against the
published ellipsometric results and the QED prediction.

The confidence-bound construction is deliberately pluggable and stamped into
every output: the headline cross-section number in the literature follows from
using the 1-sigma uncertainty directly as the bound ("one-sigma" rule), while
exclusion curves conventionally quote a one-sided 95% Gaussian bound.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from statistics import NormalDist

import numpy as np

from .apparatus import ApparatusConfig, format_number, write_table
from .constants import CONSTANTS, NATURAL_UNITS
from .models import (
    MCP_COEFFICIENTS,
    MCP_GAP_BAND,
    MCP_LARGE_CHI_K,
    alp_oscillation_factor,
    mcp_chi_per_epsilon,
    mcp_unitary_prefactor,
    photon_photon_cross_section,
    qed_unitary_birefringence,
)

BOUND_RULES = ("gaussian-one-sided", "one-sigma")


@dataclass(frozen=True)
class BirefringenceLimit:
    """Measured unitary birefringence with its Gaussian uncertainty, in T^-2."""

    central: float
    sigma: float

    def __post_init__(self):
        if not math.isfinite(self.central):
            raise ValueError(f"central must be finite, got {self.central}")
        if not (self.sigma > 0 and math.isfinite(self.sigma)):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


def confidence_bound(
    limit: BirefringenceLimit, cl: float = 0.95, rule: str = "gaussian-one-sided"
) -> float:
    """Upper bound on |Delta n_u| at confidence level cl.

    Rules:
      * ``gaussian-one-sided``: max(central, 0) + z(cl) * sigma (positivity-clipped).
      * ``one-sigma``: sigma itself, ignoring cl -- the convention behind the
        published cross-section bound.
    """
    if rule == "one-sigma":
        return limit.sigma
    if rule != "gaussian-one-sided":
        raise ValueError(f"unknown bound rule {rule!r}; known: {BOUND_RULES}")
    if not 0.5 < cl < 1.0:
        raise ValueError(f"confidence level must be in (0.5, 1), got {cl}")
    z = NormalDist().inv_cdf(cl)
    return max(limit.central, 0.0) + z * limit.sigma


@dataclass(frozen=True)
class ExclusionCurve:
    """Coupling (or charge-ratio) upper bounds on a mass grid.

    Gap points where no asymptotic regime is self-consistent carry NaN bounds
    and the tag "gap"; they are kept, not dropped.
    """

    particle_kind: str                   # "ALP" | "MCP-fermion" | "MCP-scalar"
    mass_grid_ev: np.ndarray
    bound_values: np.ndarray             # g_a in eV^-1 (ALP) or epsilon (MCP)
    regime_tags: tuple[str, ...]
    branch_tags: tuple[str, ...]
    gap_intervals: tuple[tuple[float, float], ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n = len(self.mass_grid_ev)
        if not (len(self.bound_values) == len(self.regime_tags) == len(self.branch_tags) == n):
            raise ValueError("curve arrays must share one length")


@dataclass(frozen=True)
class ReferenceResults:
    """Published unitary-birefringence results, in 1e-23 T^-2."""

    rows: tuple[tuple[str, float, float], ...]  # (experiment, central, sigma)

    @classmethod
    def bundled(cls) -> "ReferenceResults":
        payload = json.loads(
            resources.files("vmbsim.data").joinpath("published_deltanu.json").read_text()
        )
        return cls(
            rows=tuple(
                (r["experiment"], float(r["central"]), float(r["sigma"]))
                for r in payload["results"]
            )
        )


def load_context_curves() -> dict:
    """Context-only digitized curves bundled for plot axes; never computed against."""
    return json.loads(
        resources.files("vmbsim.data").joinpath("alp_context_curves.json").read_text()
    )


def default_mass_grid(kind: str, points_per_decade: int = 400) -> np.ndarray:
    """Logarithmic mass grids matching the conventional plot ranges."""
    if kind == "ALP":
        lo, hi = 1e-5, 1e-1
    elif kind.startswith("MCP"):
        lo, hi = 1e-4, 1.0
    else:
        raise ValueError(f"unknown particle kind {kind!r}")
    if points_per_decade < 1:
        raise ValueError(f"points per decade must be at least 1, got {points_per_decade}")
    decades = math.log10(hi / lo)
    n = int(round(decades * points_per_decade)) + 1
    return np.logspace(math.log10(lo), math.log10(hi), n)


def _mass_grid(mass_grid_ev, kind: str) -> np.ndarray:
    """The given masses as floats, or the default grid; a mass not positive and finite is refused."""
    masses = default_mass_grid(kind) if mass_grid_ev is None else np.asarray(mass_grid_ev, float)
    bad = ~(np.isfinite(masses) & (masses > 0))
    if bad.any():
        raise ValueError(f"masses must be positive and finite, got {float(masses[bad][0])!r}")
    return masses


# ---------------------------------------------------------------------------
# ALP exclusion
# ---------------------------------------------------------------------------

def alp_exclusion(
    limit: BirefringenceLimit,
    config: ApparatusConfig,
    mass_grid_ev: np.ndarray | None = None,
    cl: float = 0.95,
    rule: str = "gaussian-one-sided",
) -> ExclusionCurve:
    """Invert the ALP birefringence for the coupling bound at each mass.

    g_bound(m) = sqrt(2 m^2 Dn_bound / (B_nat^2 (1 - sin 2x / 2x))), with the
    full oscillation factor, on the whole grid at once; small/large-x points are
    tagged for the asymptotic regimes (x < 0.01 and x > 100).
    """
    m = _mass_grid(mass_grid_ev, "ALP")
    dn_bound_u = confidence_bound(limit, cl, rule)           # T^-2
    b_eff = config.effective_field_t
    dn_bound = dn_bound_u * b_eff**2                          # dimensionless
    b_nat = NATURAL_UNITS.field_to_natural(b_eff)
    l_nat = NATURAL_UNITS.length_to_natural(config.field_length_m)
    omega = config.photon_energy_ev

    x = l_nat * m * m / (4.0 * omega)
    bounds = np.sqrt(2.0 * m * m * dn_bound / (b_nat**2 * alp_oscillation_factor(x)))
    regime = (x >= 0.01).astype(int) + (x > 100.0)
    return ExclusionCurve(
        particle_kind="ALP",
        mass_grid_ev=m,
        bound_values=bounds,
        regime_tags=tuple(np.array(("small-x", "intermediate", "large-x"))[regime].tolist()),
        branch_tags=("full",) * len(m),
        gap_intervals=(),
        metadata={
            "deltanu_bound_t2": dn_bound_u,
            "cl": cl,
            "rule": rule,
            "effective_field_t": b_eff,
            "field_length_m": config.field_length_m,
            "photon_energy_ev": omega,
        },
    )


# ---------------------------------------------------------------------------
# MCP exclusion
# ---------------------------------------------------------------------------

def _mcp_coefficients(statistics: str) -> tuple[float, float]:
    """(|small-chi| coefficient, |large-chi| coefficient) in units of Dn_u^(MCP) B^2."""
    try:
        c_small, c_large = MCP_COEFFICIENTS[statistics]
    except KeyError:
        raise ValueError(f"statistics must be 'fermion' or 'scalar', got {statistics!r}") from None
    return abs(c_small), abs(c_large) * MCP_LARGE_CHI_K


def mcp_exclusion(
    limit: BirefringenceLimit,
    config: ApparatusConfig,
    mass_grid_ev: np.ndarray | None = None,
    statistics: str = "fermion",
    cl: float = 0.95,
    rule: str = "gaussian-one-sided",
) -> ExclusionCurve:
    """Charge-ratio bound per mass, with self-consistent regime selection.

    The small-chi branch (|Dn| = c_small * D(m) * eps^4 * B^2) inverts to
    eps = (Dn_u_bound / (c_small D))^(1/4); the large-chi branch
    (|Dn| = c_large * chi^(-4/3) * D * eps^4 * B^2 with chi = chi_1 eps) inverts
    to eps = (Dn_u_bound * chi_1^(4/3) / (c_large D))^(3/8).  Both are computed
    on the whole grid; a branch is emitted where its own chi(eps_bound) lies
    below (small-chi) or above (large-chi) the crossover band ``MCP_GAP_BAND``.
    A mass has its small-chi row, its large-chi row, both in that order, or,
    where neither branch holds, one gap row with a NaN bound.
    """
    kind = f"MCP-{statistics}"
    c_small, c_large = _mcp_coefficients(statistics)
    m = _mass_grid(mass_grid_ev, kind)
    dn_bound_u = confidence_bound(limit, cl, rule)   # T^-2, bound on |Delta n|/B^2
    b_eff = config.effective_field_t
    omega = config.photon_energy_ev
    lo, hi = MCP_GAP_BAND

    d = mcp_unitary_prefactor(m)                 # T^-2 per eps^4
    chi1 = mcp_chi_per_epsilon(m, omega, b_eff)  # chi at eps = 1
    # one candidate row per branch and mass, then the rows each mass emits, in that order
    eps = np.stack([
        (dn_bound_u / (c_small * d)) ** 0.25,
        (dn_bound_u * chi1 ** (4.0 / 3.0) / (c_large * d)) ** (3.0 / 8.0),
        np.full(len(m), np.nan),
    ], axis=1)
    small, large = chi1 * eps[:, 0] < lo, chi1 * eps[:, 1] > hi
    emitted = np.stack([small, large, ~(small | large)], axis=1)
    mass_index, branch = np.nonzero(emitted)
    tags = tuple(np.array(("small-chi", "large-chi", "gap"))[branch].tolist())
    # the first and last mass of each run of consecutive gap masses on the grid
    gap = np.concatenate(([False], emitted[:, 2], [False]))
    runs = np.flatnonzero(gap[1:] != gap[:-1]).reshape(-1, 2)
    return ExclusionCurve(
        particle_kind=kind,
        mass_grid_ev=m[mass_index],
        bound_values=eps[emitted],
        regime_tags=tags,
        branch_tags=tags,
        gap_intervals=tuple((m[start], m[stop - 1]) for start, stop in runs),
        metadata={
            "deltanu_bound_t2": dn_bound_u,
            "cl": cl,
            "rule": rule,
            "effective_field_t": b_eff,
            "photon_energy_ev": omega,
            "gap_band_lo": lo,
            "gap_band_hi": hi,
        },
    )


def mcp_deltan_over_b2_at(
    epsilon: float, mass_energy_ev: float, statistics: str, config: ApparatusConfig
) -> float:
    """|Delta n|/B^2 a millicharged particle would induce, regime chosen by chi.

    Bisection-friendly forward map used to validate the analytic inversion.
    """
    c_small, c_large = _mcp_coefficients(statistics)
    d = mcp_unitary_prefactor(mass_energy_ev)
    chi = epsilon * mcp_chi_per_epsilon(mass_energy_ev, config.photon_energy_ev,
                                        config.effective_field_t)
    if chi < 1.0:
        return c_small * d * epsilon**4
    return c_large * d * chi ** (-4.0 / 3.0) * epsilon**4


# ---------------------------------------------------------------------------
# Cross section and comparisons
# ---------------------------------------------------------------------------

def cross_section_limit(
    limit: BirefringenceLimit,
    wavelength_m: float = 1064e-9,
    rule: str = "one-sigma",
    cl: float = 0.95,
) -> dict:
    """Photon-photon cross-section bound from the birefringence limit.

    Default rule is "one-sigma" (bound = sigma), which reproduces the
    convention behind the published number; the rule used is part of the
    returned metadata, and ``cl`` only where the rule uses it.
    """
    dn_bound = confidence_bound(limit, cl, rule)
    energy_ev = CONSTANTS.photon_energy_ev(wavelength_m)
    return {
        "sigma_gamma_gamma_m2": photon_photon_cross_section(dn_bound, energy_ev),
        "deltanu_bound_t2": dn_bound,
        "rule": rule,
        **({} if rule == "one-sigma" else {"cl": cl}),
        "wavelength_m": wavelength_m,
        "photon_energy_ev": energy_ev,
    }


def comparison_report(limit: BirefringenceLimit) -> list[tuple[str, float, float]]:
    """The bundled published results, this measurement and QED, in 1e-23 T^-2 (central, sigma).

    Each published row is followed by two pure numbers with sigma 0: the factor by which
    this measurement lowers that result's bound on a millicharged particle's fractional
    charge epsilon, both bounds taken by the one-sigma rule.  Delta n_u goes as eps^4 in
    the small-chi regime and as eps^(8/3) in the large-chi one, so the factors are
    (sigma_prev / sigma)^(1/4) and (sigma_prev / sigma)^(3/8); over the PVLAS-FE test
    setup at sigma = 20e-23 T^-2 the first is 2.11, the abstract's "factor two".
    The QED row is the Euler-Heisenberg prediction, with sigma 0.  The last row is the gap
    still to close: this measurement's sigma over the QED value, a pure number, with sigma 0.
    """
    qed = qed_unitary_birefringence()
    bound = confidence_bound(limit, rule="one-sigma") / 1e-23
    rows = []
    for name, central, sigma in ReferenceResults.bundled().rows:
        ratio = confidence_bound(BirefringenceLimit(central, sigma), rule="one-sigma") / bound
        rows.append((name, central, sigma))
        rows.append((f"MCP epsilon gain over {name} (small chi)", ratio ** 0.25, 0.0))
        rows.append((f"MCP epsilon gain over {name} (large chi)", ratio ** 0.375, 0.0))
    rows.append(("this work", limit.central / 1e-23, limit.sigma / 1e-23))
    rows.append(("QED", qed / 1e-23, 0.0))
    rows.append(("this work sigma / QED", limit.sigma / qed, 0.0))
    return rows


# ---------------------------------------------------------------------------
# Curve serialization
# ---------------------------------------------------------------------------

def write_curve(curve: ExclusionCurve, path) -> None:
    items = [("particle", curve.particle_kind), *sorted(curve.metadata.items())]
    items += [("gap_interval", f"{format_number(a)} .. {format_number(b)}")
              for a, b in curve.gap_intervals]
    write_table(path, items, ("mass_ev", "bound", "regime", "branch"),
                zip(curve.mass_grid_ev, curve.bound_values, curve.regime_tags, curve.branch_tags))
