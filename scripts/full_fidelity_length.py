#!/usr/bin/env python3
"""Full fidelity at analysis length: four default blocks in bounded memory.

Synthesizes 1024 magnet revolutions (4 blocks of 8192 output samples, 273 M
raw detector samples at the defaults) in full fidelity and analyses them,
then does the same in fast fidelity with the same seed.  The signal is far
above the noise, so the two amplitudes agree to the lock-in's boxcar
attenuation (~0.64%).  Prints the process's peak resident memory and
|A_full/A_fast - 1|, and exits 1 if the peak is 500 MB or more or the
deviation 1% or more.

Then writes full records of 8 and 64 revolutions (with detector noise) to
os.devnull, each in a child process, and exits 1 if the two children's peak
resident memories differ by 10 MB or more: the writer computes the raw
samples block by block as it formats them, so its memory does not grow with
the record (the raw array of 64 revolutions is 137 MB).

    PYTHONPATH=src python scripts/full_fidelity_length.py
"""

import os
import resource
import subprocess
import sys
import time

from vmbsim.apparatus import ApparatusConfig, FixedEllipticitySource, NoiseModel, write_record
from vmbsim.pipeline import analyze_record
from vmbsim.synth import synthesize_run

REVOLUTIONS = 1024
MAX_RSS_MB = 500.0
MAX_DEVIATION = 0.01
WRITE_REVOLUTIONS = (8, 64)
MAX_WRITE_RSS_SPREAD_MB = 10.0

CFG = ApparatusConfig()
SOURCE = FixedEllipticitySource(1.5e-6)
NOISE = NoiseModel(ellipticity_noise_density=1e-8, rng_seed=1024)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def write(revolutions: int) -> None:
    """Write a full record of ``revolutions`` with detector noise to os.devnull; print the peak RSS."""
    noise = NoiseModel(NOISE.ellipticity_noise_density, 1e-4, rng_seed=NOISE.rng_seed)
    record = synthesize_run(CFG, SOURCE, noise, revolutions / CFG.magnet_rotation_hz,
                            fidelity="full")
    write_record(record, os.devnull)
    print(peak_rss_mb())


def write_peak_mb(revolutions: int) -> float:
    """Peak RSS of a child process that runs :func:`write`."""
    start = time.perf_counter()
    child = subprocess.run([sys.executable, __file__, "--write", str(revolutions)],
                           check=True, capture_output=True, text=True)
    peak = float(child.stdout.split()[-1])
    print(f"write of {revolutions} full revolutions: peak RSS {peak:.1f} MB, "
          f"{time.perf_counter() - start:.2f} s")
    return peak


def main() -> int:
    duration = REVOLUTIONS / CFG.magnet_rotation_hz
    amplitudes = {}
    for fidelity in ("full", "fast"):
        start = time.perf_counter()
        record = synthesize_run(CFG, SOURCE, NOISE, duration, fidelity=fidelity)
        estimate = analyze_record(record)
        amplitudes[fidelity] = abs(estimate.complex_amplitude_2omega)
        print(f"{fidelity}: {len(record)} samples, {estimate.n_blocks} blocks, "
              f"|A| = {amplitudes[fidelity]:.6e}, {time.perf_counter() - start:.2f} s")
        del record
    peak_mb = peak_rss_mb()
    deviation = abs(amplitudes["full"] / amplitudes["fast"] - 1.0)
    print(f"peak RSS {peak_mb:.1f} MB (limit {MAX_RSS_MB:.0f})")
    print(f"|A_full/A_fast - 1| = {deviation:.4%} (limit {MAX_DEVIATION:.0%})")
    short, long = (write_peak_mb(revolutions) for revolutions in WRITE_REVOLUTIONS)
    spread = abs(long - short)
    print(f"write peak RSS spread {spread:.1f} MB (limit {MAX_WRITE_RSS_SPREAD_MB:.0f})")
    return 0 if (peak_mb < MAX_RSS_MB and deviation < MAX_DEVIATION
                 and spread < MAX_WRITE_RSS_SPREAD_MB) else 1


if __name__ == "__main__":
    if sys.argv[1:2] == ["--write"]:
        write(int(sys.argv[2]))
        sys.exit(0)
    sys.exit(main())
