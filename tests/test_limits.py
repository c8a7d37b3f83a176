"""Limits engine: confidence bounds, exclusion curves and their round trips."""

import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import brentq

from vmbsim.apparatus import ApparatusConfig, write_table
from vmbsim.constants import NATURAL_UNITS
from vmbsim.limits import (
    BirefringenceLimit,
    ExclusionCurve,
    ReferenceResults,
    alp_exclusion,
    comparison_report,
    confidence_bound,
    cross_section_limit,
    default_mass_grid,
    load_context_curves,
    mcp_deltan_over_b2_at,
    mcp_exclusion,
    write_curve,
)
from vmbsim import limits
from vmbsim.models import (
    MCP_COEFFICIENTS,
    MCP_GAP_BAND,
    MCP_LARGE_CHI_K,
    AlpParams,
    McpParams,
    alp_deltan,
    mcp_chi_per_epsilon,
    mcp_deltan,
    mcp_unitary_prefactor,
    qed_unitary_birefringence,
)

CFG = ApparatusConfig()
HEADLINE_LIMIT = BirefringenceLimit(central=4e-23, sigma=2e-22)
LIMITS = (HEADLINE_LIMIT, BirefringenceLimit(-3e-21, 1e-22), BirefringenceLimit(1e-18, 1e-20))


def read_curve(path) -> ExclusionCurve:
    """The curve that write_curve wrote to path, each metadata value as the type it reads as."""
    metadata = {}
    particle = "unknown"
    gaps = []
    masses, bounds, regimes, branches = [], [], [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                key, _, value = body.partition("=")
                key, value = key.strip(), value.strip()
                if key == "particle":
                    particle = value
                elif key == "gap_interval":
                    a, b = value.split("..")
                    gaps.append((float(a), float(b)))
                elif key != "columns":  # the type write_curve wrote, so a rewrite is the same
                    metadata[key] = value
                    for kind in (float, int):
                        with contextlib.suppress(ValueError):
                            metadata[key] = kind(value)
            else:
                m, bound, regime, branch = [p.strip() for p in line.split(",")]
                masses.append(float(m))
                bounds.append(float(bound))
                regimes.append(regime)
                branches.append(branch)
    return ExclusionCurve(
        particle_kind=particle,
        mass_grid_ev=np.array(masses),
        bound_values=np.array(bounds),
        regime_tags=tuple(regimes),
        branch_tags=tuple(branches),
        gap_intervals=tuple(gaps),
        metadata=metadata,
    )


class TestConfidenceBound:
    def test_headline_values(self):
        assert confidence_bound(HEADLINE_LIMIT, 0.95) == pytest.approx(3.7e-22, rel=0.01, abs=0.0)
        assert confidence_bound(HEADLINE_LIMIT, 0.95) == pytest.approx(3.6897072539e-22, rel=1e-9,
                                                                       abs=0.0)

    def test_standard_quantile(self):
        lim = BirefringenceLimit(central=0.0, sigma=1.0)
        assert confidence_bound(lim, 0.95) == pytest.approx(1.6448536269514715, rel=1e-9)

    def test_negative_central_clipped(self):
        lim = BirefringenceLimit(central=-5.0, sigma=1.0)
        assert confidence_bound(lim, 0.95) == pytest.approx(1.6448536269514715, rel=1e-9)

    def test_one_sigma_rule(self):
        assert confidence_bound(HEADLINE_LIMIT, rule="one-sigma") == 2e-22

    def test_ordering_invariant(self):
        b68 = confidence_bound(HEADLINE_LIMIT, 0.68)
        b95 = confidence_bound(HEADLINE_LIMIT, 0.95)
        assert b95 > b68 > 0

    @given(
        st.floats(min_value=-1e-21, max_value=1e-21),
        st.floats(min_value=1e-24, max_value=1e-20),
    )
    def test_ordering_property(self, central, sigma):
        lim = BirefringenceLimit(central, sigma)
        assert confidence_bound(lim, 0.95) > confidence_bound(lim, 0.68) > 0

    def test_invalid_cl(self):
        with pytest.raises(ValueError):
            confidence_bound(HEADLINE_LIMIT, cl=1.5)
        with pytest.raises(ValueError):
            confidence_bound(HEADLINE_LIMIT, rule="bayes")

    def test_invalid_sigma(self):
        with pytest.raises(ValueError):
            BirefringenceLimit(0.0, 0.0)

    @pytest.mark.parametrize("central", [math.nan, math.inf, -math.inf])
    def test_non_finite_central(self, central):
        with pytest.raises(ValueError, match="central must be finite"):
            BirefringenceLimit(central, 1.0)


class TestAlpExclusion:
    def test_round_trip_to_1e9(self):
        # every bound, fed back through the source model, gives the Delta n_u bound
        for limit in LIMITS:
            curve = alp_exclusion(limit, CFG, mass_grid_ev=np.logspace(-8, 2, 301))
            b_eff = CFG.effective_field_t
            assert {"small-x", "intermediate", "large-x"} == set(curve.regime_tags)
            for m, g in zip(curve.mass_grid_ev, curve.bound_values):
                p = AlpParams(g, m, CFG.photon_energy_ev, CFG.field_length_m)
                dn = alp_deltan(p, b_eff)
                assert dn / b_eff**2 == pytest.approx(
                    curve.metadata["deltanu_bound_t2"], rel=1e-12, abs=0.0)

    def test_equals_the_per_mass_reference(self):
        # the whole-grid curve does each mass's arithmetic in the same order as this loop
        grid = np.logspace(-8, 2, 3001)
        b_nat = NATURAL_UNITS.field_to_natural(CFG.effective_field_t)
        l_nat = NATURAL_UNITS.length_to_natural(CFG.field_length_m)
        omega = CFG.photon_energy_ev
        for limit in LIMITS:
            curve = alp_exclusion(limit, CFG, mass_grid_ev=grid)
            dn = confidence_bound(limit) * CFG.effective_field_t**2
            for m, g, tag in zip(grid.tolist(), curve.bound_values.tolist(), curve.regime_tags):
                x = l_nat * m * m / (4.0 * omega)
                if x < 1e-4:
                    factor = x * x * (2.0 / 3.0 - (2.0 / 15.0) * x * x)
                else:
                    factor = 1.0 - math.sin(2.0 * x) / (2.0 * x)
                assert g == math.sqrt(2.0 * m * m * dn / (b_nat**2 * factor))
                assert tag == ("small-x" if x < 0.01 else "large-x" if x > 100 else "intermediate")

    @pytest.mark.parametrize("bad", [-1e-3, 0.0, math.nan, math.inf])
    def test_mass_not_positive_and_finite_refused(self, bad):
        with pytest.raises(ValueError, match=f"positive and finite, got {bad!r}"):
            alp_exclusion(HEADLINE_LIMIT, CFG, mass_grid_ev=[1e-3, bad, -2.0])

    def test_small_mass_asymptote_matches_limit_inversion(self):
        curve = alp_exclusion(HEADLINE_LIMIT, CFG)
        dn = curve.metadata["deltanu_bound_t2"] * CFG.effective_field_t**2
        b_nat = NATURAL_UNITS.field_to_natural(CFG.effective_field_t)
        l_nat = NATURAL_UNITS.length_to_natural(CFG.field_length_m)
        omega = CFG.photon_energy_ev
        checked = 0
        for m, g, tag in zip(curve.mass_grid_ev, curve.bound_values, curve.regime_tags):
            if tag != "small-x":
                continue
            g_limit = math.sqrt(48.0 * omega**2 * dn / (b_nat**2 * m**2 * l_nat**2))
            assert g == pytest.approx(g_limit, rel=0.01, abs=0.0)
            checked += 1
        assert checked > 100

    def test_large_mass_asymptote_decade_average(self):
        curve = alp_exclusion(HEADLINE_LIMIT, CFG)
        dn = curve.metadata["deltanu_bound_t2"] * CFG.effective_field_t**2
        b_nat = NATURAL_UNITS.field_to_natural(CFG.effective_field_t)
        ratios = [
            g / math.sqrt(2.0 * m**2 * dn / b_nat**2)
            for m, g, tag in zip(curve.mass_grid_ev, curve.bound_values, curve.regime_tags)
            if tag == "large-x"
        ]
        assert len(ratios) > 100
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.01)

    def test_sqrt_scaling_in_bound(self):
        lim4 = BirefringenceLimit(4 * HEADLINE_LIMIT.central, 4 * HEADLINE_LIMIT.sigma)
        c1 = alp_exclusion(HEADLINE_LIMIT, CFG)
        c4 = alp_exclusion(lim4, CFG)
        assert np.allclose(c4.bound_values, 2.0 * c1.bound_values, rtol=1e-12)

    def test_all_bounds_positive_finite(self):
        curve = alp_exclusion(HEADLINE_LIMIT, CFG)
        assert np.all(np.isfinite(curve.bound_values))
        assert np.all(curve.bound_values > 0)

    def test_monotonic_in_deltan_bound(self):
        tighter = BirefringenceLimit(central=1e-23, sigma=5e-23)
        c_tight = alp_exclusion(tighter, CFG)
        c_loose = alp_exclusion(HEADLINE_LIMIT, CFG)
        assert np.all(c_tight.bound_values <= c_loose.bound_values)

    def test_unit_audit_natural_vs_boundary(self):
        # converting Delta n_u to natural units first must agree to 1e-6
        curve = alp_exclusion(HEADLINE_LIMIT, CFG)
        dn_u = curve.metadata["deltanu_bound_t2"]
        b_nat = NATURAL_UNITS.field_to_natural(CFG.effective_field_t)
        l_nat = NATURAL_UNITS.length_to_natural(CFG.field_length_m)
        omega = CFG.photon_energy_ev
        dn_u_nat = dn_u / NATURAL_UNITS.tesla_to_ev2**2  # per (eV^2)^2
        for m, g in zip(curve.mass_grid_ev[::201], curve.bound_values[::201]):
            x = l_nat * m * m / (4.0 * omega)
            factor = 1.0 - math.sin(2 * x) / (2 * x) if x > 1e-4 else (2 / 3) * x * x
            g_nat = math.sqrt(2.0 * m * m * (dn_u_nat * b_nat**2) / (b_nat**2 * factor))
            assert g == pytest.approx(g_nat, rel=1e-6, abs=0.0)


class TestMcpExclusion:
    def test_self_consistent_regimes(self):
        from vmbsim.models import mcp_chi_per_epsilon

        curve = mcp_exclusion(HEADLINE_LIMIT, CFG, statistics="fermion")
        for m, eps, tag in zip(curve.mass_grid_ev, curve.bound_values, curve.regime_tags):
            chi = eps * mcp_chi_per_epsilon(m, CFG.photon_energy_ev, CFG.effective_field_t)
            if tag == "small-chi":
                assert chi < 0.1
            elif tag == "large-chi":
                assert chi > 10.0
            else:
                assert tag == "gap" and math.isnan(eps)

    def test_round_trip_through_forward_map(self):
        # the source model that synthesizes mcp: records gives back the Delta n_u bound
        b_eff = CFG.effective_field_t
        for limit in LIMITS:
            for statistics in ("fermion", "scalar"):
                curve = mcp_exclusion(limit, CFG, statistics=statistics)
                target = curve.metadata["deltanu_bound_t2"]
                assert {"small-chi", "large-chi", "gap"} == set(curve.regime_tags)
                for m, eps, tag in zip(curve.mass_grid_ev, curve.bound_values,
                                       curve.regime_tags):
                    if tag == "gap":
                        continue
                    params = McpParams(eps, m, CFG.photon_energy_ev, statistics)
                    value, regime = mcp_deltan(params, b_eff, allow_gap=True)
                    assert regime == tag
                    assert abs(value) / b_eff**2 == pytest.approx(target, rel=1e-12, abs=0.0)
                    assert mcp_deltan_over_b2_at(eps, m, statistics, CFG) == pytest.approx(
                        target, rel=1e-9, abs=0.0
                    )

    def test_a_mass_lists_its_small_chi_row_first(self, monkeypatch):
        # at the fixed band no mass emits both branches: chi_large exceeds chi_small
        # only where chi_small > (c_large / c_small)^(3/4) ~ 4.3, so the order shows
        # only with a band that starts above that
        monkeypatch.setattr(limits, "MCP_GAP_BAND", (10.0, 10.0))
        curve = mcp_exclusion(HEADLINE_LIMIT, CFG, statistics="fermion")
        masses = curve.mass_grid_ev
        twice = masses[1:] == masses[:-1]
        assert twice.sum() > 10
        tags = np.array(curve.regime_tags)
        assert set(tags[:-1][twice]) == {"small-chi"} and set(tags[1:][twice]) == {"large-chi"}
        assert np.array_equal(np.unique(masses), default_mass_grid("MCP"))
        # every mass emits a branch at this band, so none is a gap
        assert "gap" not in tags and curve.gap_intervals == ()

    @pytest.mark.parametrize("statistics", ["fermion", "scalar"])
    @pytest.mark.parametrize("points_per_decade", [5, 12])
    def test_coarse_grid_has_one_gap_interval(self, points_per_decade, statistics):
        # however far apart neighbouring masses are, consecutive gap masses are one interval
        curve = mcp_exclusion(HEADLINE_LIMIT, CFG, default_mass_grid("MCP", points_per_decade),
                              statistics=statistics)
        gaps = curve.mass_grid_ev[np.array(curve.regime_tags) == "gap"]
        assert len(gaps) > 1
        assert curve.gap_intervals == ((gaps[0], gaps[-1]),)

    def test_equals_the_per_mass_reference(self):
        # the same arithmetic as this loop, but numpy's ** rounds some operands 1 ulp
        # away from Python's pow, which moves a bound by at most 2 ulp
        grid = np.logspace(-6, 3, 3001)
        lo, hi = MCP_GAP_BAND
        for limit, statistics in itertools.product(LIMITS, ("fermion", "scalar")):
            curve = mcp_exclusion(limit, CFG, mass_grid_ev=grid, statistics=statistics)
            c_small, c_large = (abs(c) for c in MCP_COEFFICIENTS[statistics])
            dn = confidence_bound(limit)
            rows = []
            for m in grid.tolist():
                d = mcp_unitary_prefactor(m)
                chi1 = mcp_chi_per_epsilon(m, CFG.photon_energy_ev, CFG.effective_field_t)
                small = (dn / (c_small * d)) ** 0.25
                large = (dn * chi1 ** (4.0 / 3.0) / (c_large * MCP_LARGE_CHI_K * d)) ** 0.375
                emitted = [(m, small, "small-chi")] if chi1 * small < lo else []
                emitted += [(m, large, "large-chi")] if chi1 * large > hi else []
                rows += emitted or [(m, math.nan, "gap")]
            masses, bounds, tags = zip(*rows)
            assert curve.mass_grid_ev.tolist() == list(masses)
            assert curve.regime_tags == curve.branch_tags == tags
            ulps = np.abs(curve.bound_values.view(np.int64) - np.array(bounds).view(np.int64))
            assert ulps[~np.isnan(bounds)].max() <= 2
            assert np.isnan(curve.bound_values).tolist() == np.isnan(bounds).tolist()

    @pytest.mark.parametrize("bad", [-1e-3, 0.0, math.nan, math.inf])
    def test_mass_not_positive_and_finite_refused(self, bad):
        with pytest.raises(ValueError, match=f"positive and finite, got {bad!r}"):
            mcp_exclusion(HEADLINE_LIMIT, CFG, mass_grid_ev=[1e-3, bad, -2.0])

    def test_bisection_fallback_agrees(self):
        curve = mcp_exclusion(HEADLINE_LIMIT, CFG, statistics="scalar")
        target = curve.metadata["deltanu_bound_t2"]
        picked = [
            (m, e) for m, e, t in zip(curve.mass_grid_ev, curve.bound_values, curve.regime_tags)
            if t != "gap"
        ][:: max(1, len(curve.mass_grid_ev) // 12)]
        for m, eps_analytic in picked:
            f = lambda e: mcp_deltan_over_b2_at(e, m, "scalar", CFG) - target
            eps_num = brentq(f, 1e-16, 0.999, rtol=1e-12)
            assert eps_num == pytest.approx(eps_analytic, rel=1e-6, abs=0.0)

    def test_fermion_scalar_small_chi_ratio(self):
        cf = mcp_exclusion(HEADLINE_LIMIT, CFG, statistics="fermion")
        cs = mcp_exclusion(HEADLINE_LIMIT, CFG, statistics="scalar")
        pairs = [
            (ef, es)
            for ef, es, tf, ts in zip(
                cf.bound_values, cs.bound_values, cf.regime_tags, cs.regime_tags
            )
            if tf == "small-chi" and ts == "small-chi"
        ]
        assert pairs
        for ef, es in pairs:
            assert es / ef == pytest.approx(2.0 ** 0.25, rel=1e-9)

    def test_gap_points_flagged_not_dropped(self):
        curve = mcp_exclusion(HEADLINE_LIMIT, CFG, statistics="fermion")
        grid = default_mass_grid("MCP-fermion")
        assert len(curve.mass_grid_ev) >= len(grid)
        assert "gap" in curve.regime_tags
        assert len(curve.gap_intervals) >= 1

    def test_epsilon_below_1e7_for_light_masses(self):
        # with the one-sigma bound that reproduces the published cross section
        curve = mcp_exclusion(HEADLINE_LIMIT, CFG, statistics="fermion", rule="one-sigma")
        mask = (curve.mass_grid_ev < 0.02) & ~np.isnan(curve.bound_values)
        assert mask.sum() > 100
        assert np.nanmax(curve.bound_values[mask]) < 1e-7

    def test_monotonic_in_deltan_bound(self):
        tighter = BirefringenceLimit(central=1e-23, sigma=5e-23)
        ct = mcp_exclusion(tighter, CFG, statistics="fermion")
        cl = mcp_exclusion(HEADLINE_LIMIT, CFG, statistics="fermion")
        both = {}
        for m, e, t in zip(ct.mass_grid_ev, ct.bound_values, ct.branch_tags):
            if t != "gap":
                both[(m, t)] = e
        compared = 0
        for m, e, t in zip(cl.mass_grid_ev, cl.bound_values, cl.branch_tags):
            if (m, t) in both:
                assert both[(m, t)] <= e
                compared += 1
        assert compared > 100


class TestCrossSectionLimit:
    def test_reproduces_published_value(self):
        result = cross_section_limit(HEADLINE_LIMIT)
        assert result["sigma_gamma_gamma_m2"] == pytest.approx(4.6e-66, rel=0.05, abs=0.0)
        assert result["deltanu_bound_t2"] == 2e-22
        assert result["rule"] == "one-sigma"
        assert "cl" not in result  # the rule ignores it, so no value (not a nan) is written

    def test_qed_prediction_value(self):
        from vmbsim.models import photon_photon_cross_section, qed_unitary_birefringence

        sigma = photon_photon_cross_section(qed_unitary_birefringence(), CFG.photon_energy_ev)
        assert sigma == pytest.approx(1.84e-69, rel=0.02, abs=0.0)

    def test_gaussian_rule_alternative(self):
        result = cross_section_limit(HEADLINE_LIMIT, rule="gaussian-one-sided", cl=0.95)
        assert result["deltanu_bound_t2"] == pytest.approx(3.6897072539e-22, rel=1e-9, abs=0.0)
        assert result["cl"] == 0.95


class TestComparisonReport:
    def test_published_rows(self):
        rows = dict((name, (c, s)) for name, c, s in comparison_report(HEADLINE_LIMIT))
        assert rows["BFRT"] == (22000.0, 2400.0)
        assert rows["PVLAS-LNL"] == (640.0, 780.0)
        assert rows["PVLAS-FE test setup"] == (840.0, 400.0)
        assert rows["BMV"] == (830.0, 270.0)
        assert rows["this work"][0] == pytest.approx(4.0)
        assert rows["this work"][1] == pytest.approx(20.0)

    def test_qed_row_and_the_gap_to_it(self):
        rows = comparison_report(HEADLINE_LIMIT)
        qed = qed_unitary_birefringence()
        # the published rows, this work, QED and the ratio, in that order
        assert [name for name, _, _ in rows[-3:]] == ["this work", "QED",
                                                      "this work sigma / QED"]
        assert rows[-2][1:] == (qed / 1e-23, 0.0)
        assert rows[-2][1] == pytest.approx(0.4, rel=0.01)
        assert rows[-1][1:] == (2e-22 / qed, 0.0)
        assert rows[-1][1] == pytest.approx(50.0, rel=0.01)  # the abstract's "factor 50"

    def test_epsilon_gain_rows(self):
        rows = comparison_report(HEADLINE_LIMIT)
        published = ReferenceResults.bundled().rows
        # each published row, then its two gains
        assert [name for name, _, _ in rows[:-3:3]] == [name for name, _, _ in published]
        for (name, _, sigma), small, large in zip(published, rows[1:-3:3], rows[2:-3:3]):
            assert small == (f"MCP epsilon gain over {name} (small chi)",
                             (sigma / 20.0) ** 0.25, 0.0)
            assert large == (f"MCP epsilon gain over {name} (large chi)",
                             (sigma / 20.0) ** 0.375, 0.0)
        gains = {name: value for name, value, _ in rows}
        # the abstract's "factor two" over the PVLAS-FE test setup, sigma 400e-23 T^-2
        assert f"{gains['MCP epsilon gain over PVLAS-FE test setup (small chi)']:.3g}" == "2.11"
        assert f"{gains['MCP epsilon gain over PVLAS-FE test setup (large chi)']:.3g}" == "3.08"
        # the gain does not depend on the central value: one-sigma bounds
        moved = comparison_report(BirefringenceLimit(central=-7e-22, sigma=2e-22))
        assert [row for row in moved if "gain" in row[0]] == [row for row in rows
                                                             if "gain" in row[0]]

    def test_bundled_reference_table(self):
        refs = ReferenceResults.bundled()
        assert len(refs.rows) == 4

    def test_context_curves_marked(self):
        payload = load_context_curves()
        assert "context only" in payload["provenance"]
        assert len(payload["curves"]) == 2


class TestCurveSerialization:
    def test_round_trip(self, tmp_path):
        curve = mcp_exclusion(HEADLINE_LIMIT, CFG, statistics="fermion",
                              mass_grid_ev=default_mass_grid("MCP", 40))
        p1 = tmp_path / "c1.csv"
        p2 = tmp_path / "c2.csv"
        write_curve(curve, p1)
        back = read_curve(p1)
        assert back.particle_kind == curve.particle_kind
        assert back.regime_tags == curve.regime_tags
        assert back.branch_tags == curve.branch_tags
        assert np.allclose(back.mass_grid_ev, curve.mass_grid_ev, rtol=1e-8)
        finite = ~np.isnan(curve.bound_values)
        assert np.allclose(back.bound_values[finite], curve.bound_values[finite], rtol=1e-8)
        assert np.all(np.isnan(back.bound_values[~finite]))
        assert np.allclose(np.array(back.gap_intervals), np.array(curve.gap_intervals), rtol=1e-8)
        # write-read-write is byte-stable
        write_curve(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_int_metadata_is_written_and_read_as_an_int(self, tmp_path):
        curve = alp_exclusion(HEADLINE_LIMIT, CFG, mass_grid_ev=default_mass_grid("ALP", 4))
        curve.metadata["points_per_decade"] = 4
        p1, p2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        write_curve(curve, p1)
        assert "# points_per_decade = 4\n" in p1.read_text()
        back = read_curve(p1)
        assert back.metadata["points_per_decade"] == 4
        write_curve(back, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_table_layout(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, [("k", 1.5), ("n", 3), ("s", "x")], ("a", "b", "c"), [(-0.0, 2, "t")])
        assert path.read_bytes() == (b"# k = 1.50000000e+00\n# n = 3\n# s = x\n"
                                     b"# columns = a, b, c\n0.00000000e+00, 2, t\n")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ExclusionCurve("ALP", np.array([1.0]), np.array([1.0, 2.0]), ("a",), ("b",), ())
