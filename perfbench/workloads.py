"""The benchmark's three workloads.

Each workload builds its inputs from the seed alone, calls only vmbsim's public
API (``vmbsim.*`` and ``vmbsim.cli.main``, looked up at call time so the span
recorder can rebind them), and checks its outputs after the timed part.

``run(workdir)`` is one timed iteration and returns what ``check`` needs;
``check(result, workdir)`` returns ``(name, ok, detail)`` tuples.  ``n_ops`` is
the number of vmbsim operations one iteration attempts; ``run`` also returns
how many of them failed without raising (CLI exit codes).  A workload built
with ``warmup=True`` runs the same code paths on a small input.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

import vmbsim
import vmbsim.cli
import vmbsim.pipeline

CFG = vmbsim.ApparatusConfig()
BLOCK_S = 8192 / CFG.sample_rate_hz          # one default analysis block, 256 revolutions


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


class NullCampaign:
    """Acceptance criterion 7 in memory: 8859 blocks (210 h) in runs of <= 211 blocks."""

    name = "null_campaign_210h"
    SIGMA_TARGET = 2e-22                     # T^-2
    BLOCKS_PER_RUN = 211

    def __init__(self, seed: int, warmup: bool = False):
        n_blocks = 8 if warmup else int(210 * 3600 / BLOCK_S)
        self.meas_hours = n_blocks * BLOCK_S / 3600.0
        # noise density matched so the whole campaign reaches SIGMA_TARGET
        asd = (vmbsim.pipeline.ellipticity_from_deltan(self.SIGMA_TARGET, CFG)
               * math.sqrt(n_blocks * BLOCK_S))
        sizes = [min(self.BLOCKS_PER_RUN, n_blocks - done)
                 for done in range(0, n_blocks, self.BLOCKS_PER_RUN)]
        self.runs = [
            (vmbsim.NoiseModel(ellipticity_noise_density=asd, rng_seed=s), nb * BLOCK_S)
            for nb, s in zip(sizes, _seeds(seed, len(sizes)))
        ]
        self.n_ops = 2 * len(self.runs) + 1

    def run(self, workdir: Path):
        estimates = [
            vmbsim.analyze_record(vmbsim.synthesize_run(CFG, vmbsim.NullSource(), noise, duration))
            for noise, duration in self.runs
        ]
        return vmbsim.combine_runs(estimates), 0

    def check(self, result, workdir: Path):
        mean, sigma, _ = result
        physical, _ = vmbsim.project_physical(mean, vmbsim.pipeline.analytic_calibration(CFG))
        return [
            ("combined sigma within 10% of 2e-22 T^-2",
             abs(sigma / self.SIGMA_TARGET - 1.0) < 0.10, f"sigma = {sigma:.4e}"),
            ("|physical| <= 5 sigma",
             abs(physical) <= 5.0 * sigma, f"physical = {physical:+.3e}"),
        ]


class CliChain:
    """File-based user path: simulate -> analyze -> limits xsec|report|alp|mcp."""

    name = "cli_chain_6h"
    LIMITS = ("xsec", "report", "alp", "mcp")

    def __init__(self, seed: int, warmup: bool = False):
        self.revolutions = 2048 if warmup else 64768     # 8 or 253 blocks
        self.meas_hours = self.revolutions / CFG.magnet_rotation_hz / 3600.0
        self.sim_seed = _seeds(seed, 1)[0] % 2**31
        self.n_ops = 2 + len(self.LIMITS)
        self.first_digests: dict[str, str] | None = None  # file digests of the first iteration

    def _argvs(self, workdir: Path):
        out = str(workdir)
        estimate = str(workdir / "estimate.txt")
        yield ["simulate", "--source", "gas:He:32ubar", "--revolutions", str(self.revolutions),
               "--noise-asd", "3e-7", "--seed", str(self.sim_seed), "--name", "run",
               "--out-dir", out]
        yield ["analyze", str(workdir / "run.csv"), "--out-dir", out]
        for what in self.LIMITS:
            yield ["limits", what, "--estimate", estimate, "--out-dir", out]

    def run(self, workdir: Path):
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self._argvs(workdir):
                codes.append(vmbsim.cli.main(argv))
        return codes, sum(code != 0 for code in codes)

    def check(self, codes, workdir: Path):
        checks = [("every exit code is 0", all(c == 0 for c in codes), f"exit codes {codes}")]
        values = {}
        for line in (workdir / "estimate.txt").read_text().splitlines():
            key, _, value = line.partition(" = ")
            values[key] = value
        measured = float(values["deltanu_physical"])
        sigma = float(values["deltanu_sigma"])
        b = CFG.effective_field_t
        helium = vmbsim.GasSource("He", vmbsim.convert_pressure(32, "ubar", "atm"))
        expected = helium.deltan(b) / b**2
        checks.append(("helium deltanu_physical within 5 sigma of GasSource",
                       abs(measured - expected) <= 5.0 * sigma,
                       f"{measured:.4e} +/- {sigma:.2e} vs {expected:.4e} T^-2"))
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(workdir.iterdir())}
        if self.first_digests is None:
            self.first_digests = digests
        differ = sorted(n for n in digests.keys() | self.first_digests.keys()
                        if digests.get(n) != self.first_digests.get(n))
        checks.append(("outputs byte-identical to the first iteration", not differ,
                       f"differing: {differ}" if differ else f"{len(digests)} files"))
        return checks


class FullFidelity:
    """Full-fidelity 64-revolution run through the digital lock-in, plus its fast twin."""

    name = "full_fidelity_64rev"

    def __init__(self, seed: int, warmup: bool = False):
        revs = 16 if warmup else 64
        self.block_size = 32 * revs              # one block of the whole run
        self.duration = revs / CFG.magnet_rotation_hz
        self.meas_hours = 2 * self.duration / 3600.0   # the full record and its fast twin
        rng = np.random.default_rng(seed)
        # signal far above the noise, so the lock-in's small gain and phase
        # differences cannot push the amplitude ratio past 1% on any seed
        self.source = vmbsim.FixedEllipticitySource(1e-6 * (1.0 + rng.random()))
        self.noise = vmbsim.NoiseModel(ellipticity_noise_density=1e-8,
                                       rng_seed=int(rng.integers(2**31)))
        self.n_ops = 4

    def _analyze(self, fidelity: str):
        record = vmbsim.synthesize_run(CFG, self.source, self.noise, self.duration,
                                       fidelity=fidelity)
        return vmbsim.analyze_record(record, block_size=self.block_size)

    def run(self, workdir: Path):
        return (self._analyze("full"), self._analyze("fast")), 0

    def check(self, result, workdir: Path):
        full, fast = (abs(e.complex_amplitude_2omega) for e in result)
        dev = full / fast - 1.0
        return [("|A_full/A_fast - 1| < 1%", abs(dev) < 0.01, f"deviation {dev:+.4%}")]


WORKLOADS = {w.name: w for w in (NullCampaign, CliChain, FullFidelity)}
