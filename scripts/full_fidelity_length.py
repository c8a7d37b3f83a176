#!/usr/bin/env python3
"""Full fidelity at analysis length: four default blocks in bounded memory.

Synthesizes 1024 magnet revolutions (4 blocks of 8192 output samples, 273 M
raw detector samples at the defaults) in full fidelity and analyses them,
then does the same in fast fidelity with the same seed.  The signal is far
above the noise, so the two amplitudes agree to the lock-in's boxcar
attenuation (~0.64%).  Prints the process's peak resident memory and
|A_full/A_fast - 1|, and exits 1 if the peak is 500 MB or more or the
deviation 1% or more.

    PYTHONPATH=src python scripts/full_fidelity_length.py
"""

import resource
import sys
import time

from vmbsim.apparatus import ApparatusConfig, FixedEllipticitySource, NoiseModel
from vmbsim.pipeline import analyze_record
from vmbsim.synth import synthesize_run

REVOLUTIONS = 1024
MAX_RSS_MB = 500.0
MAX_DEVIATION = 0.01


def main() -> int:
    cfg = ApparatusConfig()
    source = FixedEllipticitySource(1.5e-6)
    noise = NoiseModel(ellipticity_noise_density=1e-8, rng_seed=1024)
    duration = REVOLUTIONS / cfg.magnet_rotation_hz
    amplitudes = {}
    for fidelity in ("full", "fast"):
        start = time.perf_counter()
        record = synthesize_run(cfg, source, noise, duration, fidelity=fidelity)
        estimate = analyze_record(record)
        amplitudes[fidelity] = abs(estimate.complex_amplitude_2omega)
        print(f"{fidelity}: {len(record)} samples, {estimate.n_blocks} blocks, "
              f"|A| = {amplitudes[fidelity]:.6e}, {time.perf_counter() - start:.2f} s")
        del record
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    deviation = abs(amplitudes["full"] / amplitudes["fast"] - 1.0)
    print(f"peak RSS {peak_mb:.1f} MB (limit {MAX_RSS_MB:.0f})")
    print(f"|A_full/A_fast - 1| = {deviation:.4%} (limit {MAX_DEVIATION:.0%})")
    return 0 if peak_mb < MAX_RSS_MB and deviation < MAX_DEVIATION else 1


if __name__ == "__main__":
    sys.exit(main())
