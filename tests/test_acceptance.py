"""Acceptance gate: every shipped guarantee, checked at its stated tolerance.

Each test prints exactly one ``criterion NN: PASS/FAIL`` line (run pytest
with ``-s`` to see them inline) and then asserts, so a red line and a red
test always point at the same guarantee.  Streams are frozen throughout;
every number here is reproducible bit for bit.
"""

import time
from pathlib import Path

import numpy as np

from util import RERUN_CONFIGS, count_local_maxima, run_runner

from stochlab import cli
from stochlab.core import RngStream, available_cpus, low_high_power_ratio
from stochlab.memory import (AnnealSchedule, exact_thermo,
                             ground_state_bruteforce, simulated_annealing,
                             sk_couplings)
from stochlab.networks import (barabasi_albert, degree_ccdf_fit,
                               small_world_scan)
from stochlab.paths import hausdorff_scan
from stochlab.quantum import double_slit_pattern
from stochlab.sandpile import SandGrid, abelian_check, ccdf_fit, drive


def _verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d}: {status} — {detail}")
    assert ok, f"criterion {number:02d} failed: {detail}"


def test_criterion_01_path_roughness_dimension():
    start, jobs = time.monotonic(), available_cpus()
    free = run_runner("paths", RngStream(120, 0), jobs).summary["d_h"]
    harmonic = run_runner("paths", RngStream(120, 1), jobs, a_t=1.0 / 320.0,
                          potential="harmonic").summary["d_h"]
    line = np.linspace(0.0, 1.0, 256).reshape(1, -1)
    control = hausdorff_scan(line).d_h
    elapsed = time.monotonic() - start
    ok = (abs(free - 2.0) <= 0.1 and abs(harmonic - 2.0) <= 0.1
          and abs(control - 1.0) <= 0.05 and elapsed <= 120.0)
    _verdict(1, ok,
             f"d_h free={free:.3f}, harmonic={harmonic:.3f} (band 2.0+-0.1); "
             f"straight line={control:.3f} (band 1.0+-0.05); {elapsed:.0f}s")


def test_criterion_02_two_slit_fringes():
    wavelength, separation, distance = 0.05, 1.0, 100.0
    fringe = wavelength * distance / separation
    xs = np.linspace(-2.6 * fringe, 2.6 * fringe, 2001)
    pattern = double_slit_pattern(wavelength, separation, distance, xs,
                                  mode="amplitude")
    n_maxima = count_local_maxima(pattern)
    peak = double_slit_pattern(wavelength, separation, distance,
                               np.array([0.0]), mode="amplitude")[0]
    minima = double_slit_pattern(wavelength, separation, distance,
                                 (np.arange(3) + 0.5) * fringe,
                                 mode="amplitude")
    dark = bool(np.all(minima < 1e-6 * peak))
    single = all(
        count_local_maxima(double_slit_pattern(
            wavelength, separation, distance,
            np.linspace(-span, span, 1001), mode="classical")) == 1
        for span in (2.0, 20.0, 200.0))
    ok = n_maxima >= 3 and dark and single
    _verdict(2, ok,
             f"{n_maxima} interference maxima (>=3); minima below 1e-6 of "
             f"peak: {dark}; classical mode single-peaked: {single}")


def test_criterion_03_walk_converges_to_heat_kernel():
    start = time.monotonic()
    walk = run_runner("diffuse", RngStream(53, 0), n_walkers=10_000_000)
    elapsed = time.monotonic() - start
    errors = walk.columns["sup_error"]
    decreasing = walk.summary["monotone_decreasing"]
    final = walk.summary["final_error_over_peak"]
    ok = decreasing and final < 1e-2 and elapsed <= 60.0
    _verdict(3, ok,
             f"sup errors {['%.2e' % e for e in errors]} decreasing: "
             f"{decreasing}; final/peak={final:.2e} (<1e-2); {elapsed:.0f}s")


def test_criterion_04_uncertainty_bound():
    summary = run_runner("uncertainty", RngStream(97, 0)).summary
    lowest, reference = summary["min_product"], summary["gaussian_product"]
    ok = lowest >= 0.5 - 1e-3 and abs(reference - 0.5) <= 1e-3
    _verdict(4, ok,
             f"min product over 1000 random states {lowest:.4f} "
             f"(>=0.4990); Gaussian packet {reference:.6f} (0.5+-1e-3)")


def test_criterion_05_annealing_matches_exhaustive_and_thermo_identity():
    start = time.monotonic()
    schedule = AnnealSchedule(t_initial=2.0, ratio=0.95, levels=120,
                              sweeps_per_level=50)
    matches = 0
    for i in range(100):
        couplings = sk_couplings(16, RngStream(92, 2 * i))
        _, ground = ground_state_bruteforce(couplings)
        best = simulated_annealing(couplings, schedule,
                                   RngStream(92, 2 * i + 1))
        matches += best.energy <= ground + 1e-9
    elapsed = time.monotonic() - start

    couplings = sk_couplings(12, RngStream(95, 0))
    temperature = 1.3
    delta = 1e-3 * temperature
    mid = exact_thermo(couplings, temperature)
    lo = exact_thermo(couplings, temperature - delta)
    hi = exact_thermo(couplings, temperature + delta)
    fd_energy = (mid.free_energy
                 - temperature * (hi.free_energy - lo.free_energy)
                 / (2 * delta))
    rel = abs(fd_energy - mid.mean_energy) / abs(mid.mean_energy)
    ok = matches >= 95 and rel <= 1e-4 and elapsed <= 180.0
    _verdict(5, ok,
             f"annealed energy matched exhaustive ground state in "
             f"{matches}/100 instances (>=95), {elapsed:.0f}s; "
             f"E vs F - T dF/dT rel err {rel:.1e} (<=1e-4)")


def test_criterion_06_pattern_retrieval():
    rate = run_runner("memory", RngStream(90, 0),
                      trials=1000).summary["success_rate"]
    ok = rate >= 0.95
    _verdict(6, ok,
             f"{rate:.1%} of 1000 corrupted cues recovered to overlap >=0.95 "
             f"(need >=95%)")


def test_criterion_07_sandpile_criticality():
    start = time.monotonic()
    grid = SandGrid.zeros(32, 32)
    base = RngStream(99, 0)
    drive(grid, base.substream(0), 10_000)
    record = drive(grid, base.substream(1), 100_000)

    fit = ccdf_fit(record.sizes)

    ratio = low_high_power_ratio(record.round_activity)

    ab_rng = base.substream(2)
    abelian = all(
        abelian_check(grid,
                      [(int(r), int(c)) for r, c in
                       ab_rng.gen.integers(0, 32, size=(8, 2))],
                      ab_rng, permutations=3)
        for _ in range(100))
    elapsed = time.monotonic() - start
    ok = (abelian and fit.exponent < 0 and fit.stderr < 0.1
          and ratio >= 10.0 and elapsed <= 60.0)
    _verdict(7, ok,
             f"abelian on 100 drop sequences: {abelian}; CCDF slope "
             f"{fit.exponent:.3f}+-{fit.stderr:.3f} over a decade; "
             f"low/high activity power {ratio:.0f}x (>=10x); {elapsed:.0f}s")


def test_criterion_08_stochastic_resonance_peak():
    start = time.monotonic()
    scan = run_runner("resonance", RngStream(70, 0), available_cpus())
    elapsed = time.monotonic() - start
    snr_db = scan.columns["snr_db"]
    best = int(np.argmax(snr_db))
    margin_low = snr_db[best] - snr_db[0]
    margin_high = snr_db[best] - snr_db[-1]
    ok = (scan.summary["interior_peak"] and 0 < best < len(snr_db) - 1
          and margin_low >= 3.0 and margin_high >= 3.0 and elapsed <= 120.0)
    _verdict(8, ok,
             f"SNR peaks at D={scan.summary['peak_d']} with margins "
             f"{margin_low:.1f}/{margin_high:.1f} dB over the endpoints "
             f"(>=3 dB each); {elapsed:.0f}s")


def test_criterion_09_small_world_window_and_scale_free_tail():
    start = time.monotonic()
    scan = small_world_scan(1000, 10, (0.0, 0.01, 0.03, 0.1), 10,
                            RngStream(104, 0))
    window = any(
        0.01 <= pt.p <= 0.1
        and pt.path_length_ratio < 0.5 and pt.clustering_ratio > 0.7
        for pt in scan.points)
    elapsed = time.monotonic() - start

    fit = degree_ccdf_fit(barabasi_albert(10_000, 2, RngStream(103, 1)))
    ok = (window and scan.has_window and -2.2 <= fit.exponent <= -1.6
          and elapsed <= 60.0)
    _verdict(9, ok,
             f"rewiring window with L/L0<0.5 and C/C0>0.7: {window} "
             f"({elapsed:.0f}s); degree CCDF slope {fit.exponent:.2f} "
             f"(in [-2.2, -1.6])")


def test_criterion_10_error_scaling_exponent():
    slope = run_runner("clt", RngStream(96, 0), replicas=400).summary["slope"]
    ok = abs(slope + 0.5) <= 0.05
    _verdict(10, ok, f"std-error vs n log-log slope {slope:.3f} (-0.5+-0.05)")


def test_criterion_11_manifest_reruns_are_byte_identical(golden_run, tmp_path):
    assert set(RERUN_CONFIGS) == set(cli.EXPERIMENTS)
    identical = 0
    for experiment in sorted(RERUN_CONFIGS):
        first = golden_run(experiment)
        first_dir, second_dir = Path(first.output_dir), tmp_path / experiment
        second = cli.rerun(first.path, output_dir=str(second_dir))
        same = all(
            (first_dir / entry["path"]).read_bytes()
            == (second_dir / entry["path"]).read_bytes()
            for entry in first.outputs)
        same = same and [e["sha256"] for e in first.outputs] \
            == [e["sha256"] for e in second.outputs]
        identical += same
    ok = identical == len(RERUN_CONFIGS)
    _verdict(11, ok,
             f"{identical}/{len(RERUN_CONFIGS)} experiments rerun from "
             f"their manifests with byte-identical data files")
