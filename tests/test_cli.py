"""Command-line front end: validation, artifacts, manifests, reruns."""

import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
import scipy

from test_golden import GOLDEN_CLI
from util import RERUN_CONFIGS, golden_seed, needs_two_cpus, run_runner

from stochlab import cli, resonance
from stochlab.cli import ConfigError, ExperimentConfig
from stochlab.core import RngStream, available_cpus
from stochlab.networks import parse_edge_list
from stochlab.paths import SCAN_MIN_N_T


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _python(*args):
    """Run a fresh interpreter that imports stochlab from this checkout and,
    as tier-1 does, turns warnings into errors."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                          capture_output=True, text=True, timeout=120)


# ---------------------------------------------------------------------------
# validation


def test_unknown_experiment_lists_supported_names():
    violations = cli.validate(ExperimentConfig("frobnicate", {}))
    assert len(violations) == 1
    assert "unknown name 'frobnicate'" in violations[0]
    for name in ("interfere", "sandpile", "clt"):
        assert name in violations[0]


def test_negative_width_violation_names_the_key():
    violations = cli.validate(
        ExperimentConfig("uncertainty", {"sigma0": "-2.0"}))
    assert violations == ["sigma0: must be positive (Gaussian width)"]


def test_unknown_parameter_is_rejected():
    violations = cli.validate(ExperimentConfig("decay", {"half_life": "3"}))
    assert len(violations) == 1
    assert violations[0].startswith("half_life: unknown parameter")


def test_unparsable_value_is_a_violation_not_an_exception():
    violations = cli.validate(ExperimentConfig("decay", {"bins": "many"}))
    assert violations == ["bins: could not parse 'many'"]


@pytest.mark.parametrize("experiment, key, value", [
    ("decay", "n_atoms", True),
    ("decay", "n_atoms", 2000.5),
    ("decay", "rate_lambda", True),
    ("spectrum", "commuting", "maybe"),
    # A list key takes exactly the elements its scalar key takes.
    ("resonance", "noise_levels", [True, 0.05, 0.1, 0.2, 0.4, 0.8]),
    ("network", "p_values", [0.0, True]),
    # Numbers past the double range, in which the cross-checks compute.
    pytest.param("interfere", "a_re", 10**400, id="interfere-a_re-10**400"),
    pytest.param("decay", "n_atoms", 10**400, id="decay-n_atoms-10**400"),
])
def test_typed_values_that_are_not_of_the_key_type_are_violations(
        experiment, key, value):
    # API callers and manifest echoes pass typed values, not only text.
    assert cli.validate(ExperimentConfig(experiment, {key: value})) == [
        f"{key}: could not parse {value!r}"]


# Text, typed and list values of every kind a caller may pass for any key.
_RAW_VALUES = ["", "nan", "-inf", "1e400", 10**400, True, None, "1,,2",
               "1" + "0" * 399, [2, 10**400]]


def test_validate_returns_violations_and_never_raises():
    for name, experiment in cli.EXPERIMENTS.items():
        for key in experiment.schema:
            for value in _RAW_VALUES:
                config = ExperimentConfig(name, {key: value})
                assert isinstance(cli.validate(config), list), (name, key)


def test_an_integral_float_is_an_integer():
    assert cli.validate(ExperimentConfig("decay", {"n_atoms": 2000.0})) == []


def test_every_default_config_validates_clean():
    for name in cli.EXPERIMENTS:
        assert cli.validate(ExperimentConfig(name, {})) == []


@pytest.mark.parametrize("dim", ["2", "3"])
def test_diffuse_in_any_dimension_needs_no_time_step(dim, tmp_path):
    assert cli.main(["diffuse", f"dim={dim}", "--jobs", "1",
                     "--out", str(tmp_path)]) == 0


def test_anneal_ignores_the_retrieval_flip_count(tmp_path):
    # corrupt_flips = 5 exceeds n = 4, but only the retrieve task reads it.
    config = ExperimentConfig("memory", {"task": "anneal", "n": "4"})
    assert cli.validate(config) == []
    assert cli.main(["memory", "task=anneal", "n=4", "--jobs", "1",
                     "--out", str(tmp_path)]) == 0


def _library_message(call) -> str:
    with pytest.raises(ValueError) as raised:
        call()
    return str(raised.value)


def test_cross_checks_catch_inconsistent_combinations():
    from stochlab.core import RngStream
    from stochlab.diffusion import convergence_scan
    from stochlab.memory import SpinConfig, flip_spins
    from stochlab.networks import (barabasi_albert, small_world_scan,
                                   watts_strogatz)
    from stochlab.paths import EuclideanAction, Lattice, metropolis_batch
    from stochlab.quantum import Grid1D, spectrum_gaps
    from stochlab.resonance import (DoubleWellSpec, Trajectory,
                                    resonance_scan, snr_at_drive)
    from stochlab.search import strategy_tournament

    rng = RngStream(0)
    levels = (0.1, 0.2, 0.3, 0.4, 0.5)
    # Each violation is the key and then the message of the library entry
    # point called with the same values, so the rule's text lives once.
    cases = [
        ("uncertainty", {"x_min": "2.0", "x_max": "-2.0"},
         [("x_max", lambda: Grid1D(2.0, -2.0, 64))]),
        ("spectrum", {"x_min": "2.0", "x_max": "-2.0"},
         [("x_max", lambda: Grid1D(2.0, -2.0, 400))]),
        *[("spectrum", {"potential": "box", "n_levels": "6", "n_points": "2",
                        "commuting": str(mode)},
           [("n_levels", lambda mode=mode: spectrum_gaps(
               numpy.zeros_like, Grid1D(-8.0, 8.0, 2), 6,
               commuting_mode=mode))])
          for mode in (False, True)],
        ("paths", {"sweeps": "100", "thermalization": "100"},
         [("sweeps", lambda: metropolis_batch(
             EuclideanAction(None, 0.05), Lattice(256), [rng],
             sweeps=100, thermalization=100))]),
        ("diffuse", {"a_s": "1e160"},
         [("a_s", lambda: convergence_scan(1, 1e160, 10**6, 8, 2, rng))]),
        ("resonance", {"noise_levels": ",".join(map(str, levels))},
         [("noise_levels", lambda: resonance_scan(
             DoubleWellSpec(amplitude=0.3, omega=0.1, noise_d=0.1, dt=0.01,
                            t_total=2000 * math.pi), levels, 4, rng))]),
        ("resonance", {"t_total": "60.0"},
         [("t_total", lambda: snr_at_drive(
             Trajectory(numpy.zeros(6001), 0.01), 0.1))]),
        ("memory", {"n": "4", "corrupt_flips": "5"},
         [("corrupt_flips", lambda: flip_spins(SpinConfig.random(4, rng), 5,
                                               rng))]),
        # One config breaking three network rules names all three keys.
        ("network", {"n": "8", "k": "8", "p_values": "0.1,0.1",
                     "ba_n": "2", "ba_m": "2"},
         [("k", lambda: watts_strogatz(8, 8, 0.0, rng)),
          ("p_values", lambda: small_world_scan(8, 8, (0.1, 0.1), 10, rng)),
          ("ba_m", lambda: barabasi_albert(2, 2, rng))]),
        ("search", {"sides": "2", "target_counts": "9"},
         [("target_counts", lambda: strategy_tournament(
             (2,), (9,), (0.0, 1.0), 100, rng))]),
    ]
    for experiment, params, rules in cases:
        assert cli.validate(ExperimentConfig(experiment, params)) == [
            f"{key}: {_library_message(call)}" for key, call in rules]


# Every integer parameter with an "at least N" bound: (experiment, name, N,
# companion overrides that keep the cross-checks quiet at the bound).
_LOWER_BOUNDS = [
    ("decay", "n_atoms", 1, {}),
    ("decay", "bins", 2, {}),
    ("uncertainty", "n_states", 1, {}),
    ("uncertainty", "n_points", 2, {}),
    ("spectrum", "n_levels", 2, {}),
    ("spectrum", "n_points", 2, {"n_levels": "2"}),
    ("paths", "n_t", SCAN_MIN_N_T, {}),
    ("paths", "sweeps", 2, {"thermalization": "1"}),
    ("paths", "chains", 1, {}),
    ("diffuse", "n_walkers", 1, {}),
    ("diffuse", "n_steps", 1, {}),
    ("diffuse", "refinements", 2, {}),
    ("sandpile", "width", 1, {}),
    ("sandpile", "height", 1, {}),
    ("sandpile", "n_drops", 1, {}),
    ("resonance", "replicas_per_level", 4, {}),
    ("memory", "n", 2, {"corrupt_flips": "0"}),
    ("memory", "patterns", 1, {}),
    ("memory", "trials", 1, {}),
    ("memory", "instances", 1, {}),
    ("memory", "levels", 1, {}),
    ("memory", "sweeps_per_level", 1, {}),
    ("network", "n", 3, {"k": "2"}),
    ("network", "seeds", 10, {}),
    ("network", "ba_n", 2, {"ba_m": "1"}),
    ("network", "ba_m", 1, {}),
    ("search", "replicas_per_cell", 100, {}),
    ("mcint", "dim", 1, {}),
    ("mcint", "samples", 2, {}),
    ("clt", "replicas", 2, {}),
]


@pytest.mark.parametrize("experiment,name,low,companions", _LOWER_BOUNDS)
def test_integer_lower_bound_and_its_message(experiment, name, low,
                                             companions):
    at_bound = {**companions, name: str(low)}
    assert cli.validate(ExperimentConfig(experiment, at_bound)) == []
    below = {**companions, name: str(low - 1)}
    assert cli.validate(ExperimentConfig(experiment, below)) \
        == [f"{name}: must be at least {low}"]


# Every choice parameter and its accepted names, in message order (with
# companion overrides that keep the cross-checks quiet for every name).
_CHOICES = [
    ("spectrum", "potential", "harmonic, quartic, box", {}),
    ("paths", "potential", "free, harmonic", {}),
    ("sandpile", "site_policy", "uniform-random, center", {}),
    ("memory", "task", "retrieve, anneal", {"n": "24"}),
    ("mcint", "integrand", "ball, polyprod", {}),
    ("clt", "sampler", "normal, uniform", {}),
]


@pytest.mark.parametrize("experiment,name,names,companions", _CHOICES)
def test_choice_parameter_and_its_message(experiment, name, names,
                                          companions):
    for value in names.split(", "):
        config = ExperimentConfig(experiment, {**companions, name: value})
        assert cli.validate(config) == []
    bad = ExperimentConfig(experiment, {**companions, name: "bogus"})
    assert cli.validate(bad) == [f"{name}: must be one of: {names}"]


def test_clt_n_values_need_two_distinct_entries():
    repeated = ExperimentConfig("clt", {"n_values": "4,4"})
    assert cli.validate(repeated) \
        == ["n_values: needs at least two distinct entries, each >= 2"]
    assert cli.validate(ExperimentConfig("clt", {"n_values": "4,4,8"})) == []


def test_anneal_size_cap_is_the_enumeration_bound():
    at_cap = ExperimentConfig("memory", {"task": "anneal", "n": "24"})
    assert cli.validate(at_cap) == []
    over = ExperimentConfig("memory", {"task": "anneal", "n": "25"})
    assert cli.validate(over) \
        == ["n: anneal task needs n <= 24 (exhaustive oracle bound)"]


def test_bad_seed_and_replicas_are_violations():
    assert cli.validate(ExperimentConfig("mcint", {}, seed=-1)) \
        == ["seed: must be an integer in [0, 2^64)"]
    assert cli.validate(ExperimentConfig("mcint", {}, replicas=0)) \
        == ["replicas: must be a positive integer"]


def test_bad_seed_and_replicas_flags_exit_2_naming_both(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["mcint", "--replicas", "two", "--seed", "x",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "invalid config: seed: must be an integer in [0, 2^64)\n"
        "invalid config: replicas: must be a positive integer\n")
    assert not out.exists()


def test_seed_and_replicas_flags_are_converted_to_integers(tmp_path):
    assert cli.main(["mcint", "--seed", "21", "--replicas", "2",
                     "--out", str(tmp_path), "samples=1000"]) == 0
    echoed = json.loads((tmp_path / "manifest.json").read_text())
    assert echoed["seed"] == 21 and echoed["replicas"] == 2


@pytest.mark.parametrize("jobs", ["0", "two", str(available_cpus() + 1)])
def test_bad_jobs_exits_2_before_any_work(jobs, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["resonance", "--jobs", jobs, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"invalid config: jobs: must be an integer in [1, {available_cpus()}]"
        " (the CPUs available)\n")
    assert not out.exists()  # run() never started, so no worker did


def test_run_raises_config_error_on_invalid_config(tmp_path):
    with pytest.raises(ConfigError, match="sigma0"):
        cli.run(ExperimentConfig("uncertainty", {"sigma0": "-1"},
                                 output_dir=str(tmp_path)))


# ---------------------------------------------------------------------------
# artifacts


def test_destructive_pair_writes_exact_zero(tmp_path):
    cli.run(ExperimentConfig("interfere", {"b_re": "-1.0"},
                             output_dir=str(tmp_path)))
    header, rows = _read_csv(tmp_path / "interfere.csv")
    assert header == ["replica", "a_re", "a_im", "b_re", "b_im",
                      "p_quantum", "p_classical", "interference"]
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert row["p_quantum"] == "0.0"
    assert float(row["p_classical"]) == 2.0
    summary = json.loads((tmp_path / "interfere_summary.json").read_text())
    assert summary["destructive"] is True


def test_csv_cell_formatting_round_trips(tmp_path):
    cli.run(ExperimentConfig("diffuse", {"n_walkers": "20000"},
                             output_dir=str(tmp_path), seed=5))
    header, rows = _read_csv(tmp_path / "diffuse.csv")
    assert header[-1] == "sampling_limited"
    for row in rows:
        assert row[-1] in ("true", "false")
        assert float(row[4]) == float(repr(float(row[4])))  # repr round-trip


def test_uncertainty_summary_reports_bound(tmp_path):
    cli.run(ExperimentConfig("uncertainty", {"n_states": "40"},
                             output_dir=str(tmp_path), seed=3))
    summary = json.loads((tmp_path / "uncertainty_summary.json").read_text())
    assert summary["bound_violations"] == 0
    assert summary["min_product"] >= 0.5 - 1e-3
    assert abs(summary["gaussian_product"] - 0.5) < 1e-3
    header, rows = _read_csv(tmp_path / "uncertainty.csv")
    assert header == ["replica", "state", "dx", "dp", "product"]
    assert len(rows) == 40


def test_network_run_emits_parseable_edge_list(tmp_path):
    cli.run(ExperimentConfig(
        "network",
        {"n": "24", "k": "4", "ba_n": "80", "ba_m": "2",
         "p_values": "0,0.3"},
        output_dir=str(tmp_path), seed=9))
    text = (tmp_path / "network_sample.edges").read_text()
    graph = parse_edge_list(text, 24)
    assert graph.edge_count == 24 * 4 // 2
    header, rows = _read_csv(tmp_path / "network.csv")
    assert [r[1] for r in rows] == ["0.0", "0.3"]
    assert rows[0][2] == "1.0" and rows[0][3] == "1.0"


@pytest.mark.parametrize("argv, prefix", [
    # ba_n <= 6 leaves fewer than three CCDF points to fit.
    (["network", "n=5", "k=4", "seeds=10", "ba_n=5", "ba_m=4", "p_values=0,1"],
     "ba_"),
    # A 1 x 1 pile sheds every grain of a toppling: no avalanche reaches 10.
    (["sandpile", "width=1", "height=1", "n_drops=5", "warmup=0"], ""),
], ids=["network", "sandpile"])
def test_small_ba_graph_gives_a_nan_ccdf_slope(argv, prefix, tmp_path):
    assert cli.main([*argv, "--jobs", "1", "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / f"{argv[0]}_summary.json").read_text())
    assert math.isnan(summary[f"{prefix}ccdf_slope"])
    assert math.isnan(summary[f"{prefix}ccdf_stderr"])


def test_triangle_free_ring_gives_nan_clustering_ratios(tmp_path):
    # A k = 2 ring has zero clustering, so C(p) / C(0) is undefined.
    assert cli.main(["network", "--jobs", "1", "--out", str(tmp_path),
                     "n=9", "k=2", "p_values=0,1"]) == 0
    header, rows = _read_csv(tmp_path / "network.csv")
    assert [r[2] for r in rows] == ["nan", "nan"]
    summary = json.loads((tmp_path / "network_summary.json").read_text())
    assert summary["clustering_base"] == 0.0
    assert summary["has_window"] is False


def test_search_table_has_both_strategies_per_cell(tmp_path):
    cli.run(ExperimentConfig(
        "search", {"sides": "6", "target_counts": "2", "radii": "0"},
        output_dir=str(tmp_path), seed=2))
    header, rows = _read_csv(tmp_path / "search.csv")
    assert len(rows) == 2
    assert {row[4] for row in rows} == {"random-walk", "sweep"}
    assert {row[-1] for row in rows} == {"1", "2"}


_PLAIN_VALUES = {"count": 3, "rate": 0.1, "half": 0.5, "nan": math.nan,
                 "inf": math.inf, "neg_inf": -math.inf, "neg_zero": -0.0,
                 "flag": True, "off": False}
_NUMPY_VALUES = {"count": numpy.int64(3), "rate": numpy.float64(0.1),
                 "half": numpy.float32(0.5), "nan": numpy.float64(math.nan),
                 "inf": numpy.float32(math.inf),
                 "neg_inf": numpy.float64(-math.inf),
                 "neg_zero": numpy.float64(-0.0), "flag": numpy.bool_(True),
                 "off": numpy.bool_(False)}


@pytest.mark.parametrize("values", [
    _PLAIN_VALUES, _NUMPY_VALUES,
    {key: (_PLAIN_VALUES if i % 2 else _NUMPY_VALUES)[key]
     for i, key in enumerate(_PLAIN_VALUES)},
], ids=["python", "numpy", "mixed"])
def test_tables_and_summaries_write_numpy_scalars_as_python_values(
        values, tmp_path, monkeypatch):
    summary = {**values, "pair": (values["count"], values["neg_zero"]),
               "nested": {"flag": values["off"],
                          "pair": (values["half"], values["nan"])}}
    output = cli._RunOutput({key: [value] for key, value in values.items()},
                            summary)
    monkeypatch.setitem(cli.EXPERIMENTS, "mixed",
                        cli._Experiment(lambda p, rng, jobs: output, {}))
    cli.run(ExperimentConfig("mixed", {}, output_dir=str(tmp_path), jobs=1))
    assert (tmp_path / "mixed.csv").read_bytes() == (
        b"replica,count,rate,half,nan,inf,neg_inf,neg_zero,flag,off\r\n"
        b"0,3,0.1,0.5,nan,inf,-inf,-0.0,true,false\r\n")
    assert (tmp_path / "mixed_summary.json").read_text() == """\
{
  "count": 3,
  "flag": true,
  "half": 0.5,
  "inf": Infinity,
  "nan": NaN,
  "neg_inf": -Infinity,
  "neg_zero": -0.0,
  "nested": {
    "flag": false,
    "pair": [
      0.5,
      NaN
    ]
  },
  "off": false,
  "pair": [
    3,
    -0.0
  ],
  "rate": 0.1
}
"""


def test_paths_run_pools_chains_and_echoes_free_potential(tmp_path):
    # Criterion 01 checks the d_h band on the default configuration.
    manifest = cli.run(ExperimentConfig("paths", RERUN_CONFIGS["paths"],
                                        output_dir=str(tmp_path)))
    summary = json.loads((tmp_path / "paths_summary.json").read_text())
    assert summary["pooled_paths"] >= 100
    assert manifest.parameters["potential"] == "free"


# ---------------------------------------------------------------------------
# manifests, determinism, reruns


def test_manifest_digests_match_written_files(tmp_path):
    manifest = cli.run(ExperimentConfig("mcint", {"samples": "4000"},
                                        output_dir=str(tmp_path), seed=21))
    names = {entry["path"] for entry in manifest.outputs}
    assert names == {"mcint.csv", "mcint_summary.json"}
    for entry in manifest.outputs:
        blob = (tmp_path / entry["path"]).read_bytes()
        assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
        assert len(blob) == entry["bytes"]
    echoed = json.loads((tmp_path / "manifest.json").read_text())
    assert echoed["parameters"]["samples"] == 4000
    assert echoed["seed"] == 21
    assert echoed["artifact_version"]


def test_manifest_payload_echoes_the_returned_manifest(tmp_path):
    manifest = cli.run(ExperimentConfig("network",
                                        {"n": "20", "k": "4", "seeds": "10",
                                         "ba_n": "50"},
                                        output_dir=str(tmp_path), seed=4,
                                        replicas=2, jobs=1))
    echoed = json.loads((tmp_path / "manifest.json").read_text())
    fields = {field.name for field in dataclasses.fields(cli.RunManifest)}
    assert set(echoed) == fields
    assert manifest.path == str(Path(manifest.output_dir) / "manifest.json")
    assert Path(manifest.path).is_file()
    assert echoed["parameters"] == manifest.parameters
    assert echoed["outputs"] == list(manifest.outputs)
    assert echoed["environment"] == manifest.environment
    assert echoed["seed"] == manifest.seed == 4
    assert echoed["replicas"] == manifest.replicas == 2
    assert echoed["jobs"] == manifest.jobs == 1
    assert "jobs" not in echoed["parameters"]


def test_manifest_jobs_defaults_to_the_available_cpus(tmp_path):
    manifest = cli.run(ExperimentConfig("interfere", {},
                                        output_dir=str(tmp_path)))
    assert manifest.jobs == available_cpus()


def test_manifest_stamps_python_numpy_and_scipy_versions(tmp_path):
    # scipy is stamped because this process loaded it (the test modules
    # import it); the fresh-interpreter runs below load and stamp none.
    assert "scipy" in sys.modules
    cli.run(ExperimentConfig("mcint", {"samples": "4000"},
                             output_dir=str(tmp_path)))
    echoed = json.loads((tmp_path / "manifest.json").read_text())
    assert echoed["environment"] == {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def test_same_seed_reproduces_data_bytes(tmp_path):
    blobs = []
    for label in ("a", "b"):
        out = tmp_path / label
        cli.run(ExperimentConfig("decay", {"n_atoms": "3000"},
                                 output_dir=str(out), seed=17))
        blobs.append((out / "decay.csv").read_bytes())
    assert blobs[0] == blobs[1]
    other = tmp_path / "c"
    cli.run(ExperimentConfig("decay", {"n_atoms": "3000"},
                             output_dir=str(other), seed=18))
    assert (other / "decay.csv").read_bytes() != blobs[0]


def test_seeds_past_two_to_the_53_give_distinct_runs(tmp_path):
    digests = []
    for seed in (2**53, 2**53 + 1, 2**64 - 1):
        out = tmp_path / str(seed)
        child = _python("-m", "stochlab", "decay", "--seed", str(seed),
                        "--out", str(out), "n_atoms=3000")
        assert child.returncode == 0, child.stderr
        digests.append(hashlib.sha256((out / "decay.csv").read_bytes())
                       .hexdigest())
    assert len(set(digests)) == 3


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    first = cli.run(ExperimentConfig("sandpile",
                                     {"width": "8", "height": "8",
                                      "warmup": "500", "n_drops": "1500"},
                                     output_dir=str(tmp_path / "a"), seed=4))
    second = cli.rerun(first.path, output_dir=str(tmp_path / "b"))
    assert second.experiment == "sandpile"
    for entry in first.outputs:
        assert (tmp_path / "a" / entry["path"]).read_bytes() \
            == (tmp_path / "b" / entry["path"]).read_bytes()
    # With no output_dir the rerun goes into the manifest's own directory.
    third = cli.rerun(first.path)
    assert third.output_dir == first.output_dir
    assert third.outputs == first.outputs


def _ragged_columns(p, rng, jobs):
    return cli._RunOutput({"n": [1, 2], "value": [0.5]}, {})


def _unencodable_summary(p, rng, jobs):
    return cli._RunOutput({"n": [1]}, {"seen": {1, 2}})


@pytest.mark.parametrize("runner, error", [
    (_ragged_columns, ValueError),
    (_unencodable_summary, TypeError),
], ids=["ragged-columns", "set-in-summary"])
def test_outputs_that_cannot_be_encoded_raise_before_any_file_is_written(
        runner, error, tmp_path, monkeypatch):
    earlier = tmp_path / "earlier"
    cli.run(ExperimentConfig("mcint", {"samples": "4000"},
                             output_dir=str(earlier), jobs=1))
    before = {path.name: path.read_bytes() for path in earlier.iterdir()}
    entry = dataclasses.replace(cli.EXPERIMENTS["mcint"], run=runner)
    monkeypatch.setitem(cli.EXPERIMENTS, "mcint", entry)
    fresh = tmp_path / "fresh"
    for out in (fresh, earlier):
        with pytest.raises(error):
            cli.run(ExperimentConfig("mcint", {}, output_dir=str(out)))
    assert not fresh.exists()
    assert {path.name: path.read_bytes()
            for path in earlier.iterdir()} == before


def test_replica_fanout_orders_rows_and_summaries(tmp_path):
    cli.run(ExperimentConfig("clt",
                             {"n_values": "4,16,64", "replicas": "40"},
                             output_dir=str(tmp_path), seed=6, replicas=3))
    header, rows = _read_csv(tmp_path / "clt.csv")
    assert header == ["replica", "n", "std_error"]
    assert [row[0] for row in rows] == ["0"] * 3 + ["1"] * 3 + ["2"] * 3
    summary = json.loads((tmp_path / "clt_summary.json").read_text())
    assert summary["replicas"] == 3
    slopes = [entry["slope"] for entry in summary["per_replica"]]
    assert len(slopes) == 3 and len(set(slopes)) == 3
    for slope in slopes:
        assert -0.75 < slope < -0.25


def test_mcint_polyprod_estimate_is_within_its_error():
    summary = run_runner("mcint", RngStream(97, 0), integrand="polyprod",
                         samples=20_000).summary
    assert summary["exact"] == (2.0 / 3.0) ** 2
    assert abs(summary["z_score"]) < 3.0


def test_clt_uniform_sampler_error_scales_as_n_to_minus_one_half():
    slope = run_runner("clt", RngStream(98, 0), sampler="uniform",
                       replicas=400).summary["slope"]
    assert abs(slope + 0.5) <= 0.05


def test_replicas_use_distinct_substreams(tmp_path):
    cli.run(ExperimentConfig("mcint", {"samples": "2000"},
                             output_dir=str(tmp_path), seed=1, replicas=2))
    _, rows = _read_csv(tmp_path / "mcint.csv")
    assert rows[0][2] != rows[1][2]  # estimates differ across substreams


# ---------------------------------------------------------------------------
# command-line entry point


def test_main_success_prints_manifest_path(tmp_path, capsys):
    code = cli.main(["interfere", "--out", str(tmp_path), "b_re=-1"])
    assert code == 0
    assert capsys.readouterr().out.strip() == str(tmp_path / "manifest.json")


def test_main_invalid_config_exits_2(tmp_path, capsys):
    code = cli.main(["uncertainty", "--out", str(tmp_path), "sigma0=-3"])
    assert code == 2
    assert "sigma0" in capsys.readouterr().err


def test_main_unknown_experiment_exits_2(tmp_path, capsys):
    assert cli.main(["warpdrive", "--out", str(tmp_path)]) == 2
    assert "supported" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["stochlab", "stochlab.cli"])
def test_python_dash_m_runs_the_command_line(module, tmp_path):
    ok = _python("-m", module, "interfere", "--out", str(tmp_path))
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.strip() == str(tmp_path / "manifest.json")
    unknown = _python("-m", module, "warpdrive", "--out", str(tmp_path / "unknown"))
    assert unknown.returncode == 2
    assert "supported" in unknown.stderr


_EXPERIMENT_MODULES = {f"stochlab.{name}" for name in (
    "quantum", "paths", "diffusion", "sandpile", "resonance", "memory",
    "networks", "search")}


def _scipy_modules(loaded):
    return {name for name in loaded if name.split(".")[0] == "scipy"}


def test_importing_the_cli_leaves_deferred_scipy_submodules_unloaded():
    # In-process the test modules have already imported scipy, so only a
    # fresh interpreter shows what ``import stochlab.cli`` loads.
    child = _python("-c", "import sys, stochlab.cli; print(*sorted(sys.modules))")
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.split())
    assert {"stochlab.cli", "stochlab.core"} <= loaded
    assert not _scipy_modules(loaded)
    assert not loaded & {"multiprocessing", "concurrent.futures.process"}
    assert not loaded & _EXPERIMENT_MODULES


@pytest.mark.parametrize("argv", [
    ["decay", "n_atoms=2000"],
    ["resonance", "--jobs", "2", "dt=0.1", "noise_levels=0.05,0.1,0.2,0.4,0.8"],
])
def test_a_run_without_scipy_loads_and_stamps_none(argv, tmp_path):
    script = ("import sys\n"
              "from stochlab.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(*sorted(sys.modules))\n"
              "sys.exit(code)\n")
    child = _python("-c", script, *argv[:1], "--out", str(tmp_path),
                    *argv[1:])
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.split())
    assert not _scipy_modules(loaded)
    # resonance --jobs 2 forks its workers without a process pool, and
    # they report through files, which need no select loop.
    assert not loaded & {"multiprocessing", "concurrent.futures"}
    assert "select" not in loaded
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["environment"] == {"python": platform.python_version(),
                                       "numpy": numpy.__version__}


def test_network_run_loads_no_scipy_submodule_and_no_other_experiment(tmp_path):
    script = ("import sys\n"
              "from stochlab.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(*sorted(sys.modules))\n"
              "sys.exit(code)\n")
    child = _python("-c", script, "network", "--jobs", "1", "--out",
                    str(tmp_path), "n=24", "k=4", "ba_n=80", "p_values=0,0.3")
    assert child.returncode == 0, child.stderr
    loaded = set(child.stdout.split())
    assert "stochlab.networks" in loaded
    assert not loaded & (_EXPERIMENT_MODULES - {"stochlab.networks"})
    assert not _scipy_modules(loaded)


@pytest.mark.parametrize("experiment",
                         ["interfere", "network",
                          pytest.param("paths", marks=needs_two_cpus),
                          "spectrum"])
def test_cold_start_run_matches_golden_digests(experiment, tmp_path):
    # The tables were recorded at --jobs 1; paths splits its chains here.
    jobs = "2" if experiment == "paths" else "1"
    overrides = [f"{key}={value}"
                 for key, value in RERUN_CONFIGS[experiment].items()]
    child = _python("-m", "stochlab", experiment,
                    "--seed", str(golden_seed(experiment)), "--replicas", "2",
                    "--jobs", jobs, "--out", str(tmp_path), *overrides)
    assert child.returncode == 0, child.stderr
    manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
    # Only spectrum's eigensolver loads scipy, and only a loaded library is
    # stamped.
    environment = manifest["environment"]
    assert environment.pop("scipy", None) == (
        scipy.__version__ if experiment == "spectrum" else None)
    assert set(environment) == {"python", "numpy"}
    on_disk = {entry["path"]:
               hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
               for entry in manifest["outputs"]}
    assert on_disk == GOLDEN_CLI[experiment]


@pytest.mark.parametrize("argv, key", [
    # 6283.2 at dt = 0.5 integrates 6283.0: 99.997 drive periods.
    (["resonance", "t_total=6283.2", "dt=0.5",
      "noise_levels=0.01,0.02,0.04,0.08,0.1"], "t_total"),
    # 12.57 samples per period round to 13: the line drifts off its bin.
    (["resonance", "omega=1", "dt=0.5", "t_total=700",
      "noise_levels=0.01,0.02,0.04,0.08,0.1"], "t_total"),
    # The ninth halving of a_s takes 8 * 4**9 steps: 3-d keys overflow.
    (["diffuse", "dim=3", "refinements=9", "n_walkers=1000"], "refinements"),
    # t_total / dt overflows to inf, which has no step count.
    (["resonance", "dt=1e-320"], "t_total"),
    # The eigensolver's level bound holds in both modes, not only commuting.
    (["spectrum", "potential=box", "n_levels=6", "n_points=2"], "n_levels"),
    # Gamma(342 / 2 + 1) overflows a double.
    (["mcint", "dim=342"], "dim"),
    # Squares that overflow: b_re**2, sigma0**2, the radius squared and the
    # 3-d cell volume 2 * a_s**3; sigma0**2 and bin edges squared underflow.
    (["interfere", "b_re=1e308"], "b_re"),
    (["uncertainty", "sigma0=1e300"], "sigma0"),
    (["uncertainty", "sigma0=1e-300"], "sigma0"),
    (["search", "radii=1e300"], "radii"),
    (["diffuse", "dim=3", "a_s=1e150"], "a_s"),
    (["decay", "t_max=1e-300", "rate_lambda=0.001", "n_atoms=10", "bins=2"],
     "t_max"),
    # The 3-d cell volume underflows to 0; a subnormal volume, in 3-d and
    # 2-d, has a reciprocal (one walker's density) that overflows.  Over a
    # long run the heat-kernel peak stays finite, and only the density rule
    # stops it.
    (["diffuse", "dim=3", "a_s=1e-110"], "a_s"),
    (["diffuse", "dim=3", "a_s=1e-104", "n_walkers=1000"], "a_s"),
    (["diffuse", "dim=2", "a_s=1e-155", "n_walkers=1000"], "a_s"),
    (["diffuse", "dim=3", "a_s=1e-104", "n_walkers=10", "n_steps=40000"],
     "a_s"),
    # Bin edges and a_s whose squares overflow, and an a_s whose derived
    # time step a_s**2 / 2 underflows to 0 while its cell stays finite.
    (["decay", "t_max=1e160"], "t_max"),
    (["diffuse", "a_s=1e160"], "a_s"),
    (["diffuse", "a_s=1e-170"], "a_s"),
    # A kick scale sqrt(2 * D * dt) of about 1.4e149 leaves |x| < 1e3 on
    # the first steps at any affordable dt.
    (["resonance", "noise_levels=1e-300,1e-100,1,1e100,1e300"],
     "noise_levels"),
    # Grid spacings whose square overflows (the eigensolver's h**2) or
    # underflows to 0 (the largest wavenumber's square overflows).
    (["spectrum", "n_levels=3", "n_points=3", "x_max=1e300"], "x_max"),
    (["uncertainty", "x_min=-1e-300", "x_max=1e-200"], "x_max"),
    # Mean lifetimes 1/rate_lambda that overflow, and one whose n_atoms
    # lifetimes sum past the largest double.
    (["decay", "rate_lambda=1e-310"], "rate_lambda"),
    (["decay", "rate_lambda=5e-324"], "rate_lambda"),
    (["decay", "rate_lambda=1e-305"], "rate_lambda"),
    # A subnormal slice spacing: the kinetic coefficient 1 / (2 a_t) is inf.
    (["paths", "a_t=1e-310"], "a_t"),
    # Integers past the double range, in which the cross-checks compute.
    (["decay", f"n_atoms=1{'0' * 400}"], "n_atoms"),
    (["uncertainty", f"n_points=1{'0' * 400}"], "n_points"),
    (["spectrum", f"n_points=1{'0' * 400}"], "n_points"),
    (["diffuse", f"n_steps=1{'0' * 400}"], "n_steps"),
], ids=["short-record", "line-off-its-bin", "diffuse-key-range",
        "overflowing-step-count", "spectrum-levels-past-grid",
        "mcint-ball-gamma-overflow", "interfere-amplitude", "uncertainty-width",
        "uncertainty-narrow-width", "search-radius", "diffuse-cell-volume",
        "decay-bin-edges", "diffuse-cell-underflow",
        "diffuse-subnormal-cell-3d", "diffuse-subnormal-cell-2d",
        "diffuse-subnormal-cell-long-run", "decay-bin-edges-overflow",
        "diffuse-step-overflow", "diffuse-step-underflow",
        "resonance-kick-past-trust-bound",
        "spectrum-spacing-square-overflow", "uncertainty-spacing-underflow",
        "decay-lifetime-overflow", "decay-lifetime-overflow-min",
        "decay-lifetime-sum-overflow", "paths-kinetic-overflow",
        "decay-huge-n_atoms", "uncertainty-huge-n_points",
        "spectrum-huge-n_points", "diffuse-huge-n_steps"])
def test_faults_known_from_the_config_exit_2(argv, key, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main([*argv, "--jobs", "1", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"invalid config: {key}: ")
    assert not out.exists()


@pytest.mark.parametrize("overrides", [{"dt": "1e-200"},
                                       {"dt": "1e-8", "omega": "1000"}])
def test_resonance_record_past_the_cap_is_a_violation(overrides):
    # Through validate only: running these records would try to allocate
    # terabytes.
    violations = cli.validate(ExperimentConfig("resonance", overrides))
    assert len(violations) == 1
    assert violations[0].startswith("t_total: the record takes ")


def test_noise_levels_past_the_double_range_validate_without_a_warning():
    # levels[-1] / levels[0] is 1e309, past the double range; pytest here
    # turns warnings into errors.
    levels = "1e-302,1e-100,1,1e3,1e7"
    assert cli.validate(ExperimentConfig("resonance",
                                         {"noise_levels": levels})) == []


_TRACE_OVERFLOW = ("ValueError: the action trace overflows a double; "
                   "reduce a_t")


@pytest.mark.parametrize("potential, a_t, sweeps, failure", [
    ("harmonic", "1e300", "60", _TRACE_OVERFLOW),
    ("harmonic", "1e150", "60", _TRACE_OVERFLOW),
    ("harmonic", "1e300", "8", _TRACE_OVERFLOW),
    ("harmonic", "1e150", "8", _TRACE_OVERFLOW),
    ("harmonic", "1e307", "60", _TRACE_OVERFLOW),
    ("free", "1.7e308", "60", _TRACE_OVERFLOW),
    ("free", "1e305", "60", "FitError: the paths' fluctuation scale "
                            "overflows a double; reduce a_t"),
], ids=["1e300", "1e150", "1e300-short-trace", "1e150-short-trace",
        "harmonic-1e307", "free-1.7e308", "free-1e305"])
def test_overflowing_action_exits_3_naming_a_t(potential, a_t, sweeps,
                                               failure, tmp_path):
    # At harmonic 1e300 and 1e307, and free 1.7e308, the starting paths'
    # action overflows; at 1e150 only the trace's variance does, which at
    # sweeps=8 is checked before the short-window return.  At free 1e305
    # the action stays finite, but the scan's pooled squared increments do
    # not.  The child turns warnings into errors, so numpy may not warn on
    # the way.
    child = _python("-m", "stochlab", "paths", f"a_t={a_t}",
                    f"potential={potential}", f"sweeps={sweeps}",
                    "thermalization=1", "chains=1", "--jobs", "1",
                    "--out", str(tmp_path))
    assert child.returncode == 3
    assert child.stderr.splitlines()[-1] == f"runtime failure: {failure}"


def test_near_subnormal_a_t_runs_without_a_warning(tmp_path):
    # coef = 1 / (2 a_t) is about 1.7e308, so the sampler's -coef * d
    # overflows to -inf: an exact rejection that numpy must not warn about.
    child = _python("-m", "stochlab", "paths", "a_t=3e-309", "sweeps=300",
                    "thermalization=100", "chains=1", "--jobs", "1",
                    "--out", str(tmp_path))
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""


@pytest.mark.parametrize("jobs", ["1", pytest.param("2", marks=needs_two_cpus)])
def test_main_runtime_failure_exits_3(jobs, tmp_path, capsys):
    out = tmp_path / "run"
    code = cli.main(["resonance", "--jobs", jobs, "--out", str(out),
                     "dt=0.9", "t_total=7000",
                     "noise_levels=0.1,0.2,0.4,0.8,1.6"])
    assert code == 3
    assert capsys.readouterr().err == ("runtime failure: IntegrationError: "
                                       "|x| exceeded 1000 at t = 3.6; "
                                       "reduce dt\n")
    assert not out.exists()


def _overflowing_snr(trajectory, omega):
    return float(numpy.exp(numpy.float64(1000.0)))


@pytest.mark.parametrize("jobs", ["1", pytest.param("2", marks=needs_two_cpus)])
def test_numpy_overflow_in_a_runner_exits_3_naming_the_experiment(
        jobs, tmp_path, capsys, monkeypatch):
    # At --jobs 2 the cells run in forked workers: the error state reaches
    # them, and the FloatingPointError crosses the report pipe.
    monkeypatch.setattr(resonance, "snr_at_drive", _overflowing_snr)
    out = tmp_path / "run"
    code = cli.main(["resonance", "--jobs", jobs, "--out", str(out),
                     "dt=0.1", "noise_levels=0.05,0.1,0.2,0.4,0.8"])
    assert code == 3
    assert capsys.readouterr().err == (
        "runtime failure: FloatingPointError in resonance: "
        "overflow encountered in exp\n")
    assert not out.exists()


def test_failed_run_leaves_an_earlier_run_untouched(tmp_path, capsys):
    assert cli.main(["interfere", "--jobs", "1", "--out", str(tmp_path)]) == 0
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert cli.main(["resonance", "amplitude=1e100", "--jobs", "1",
                     "--out", str(tmp_path)]) == 3
    capsys.readouterr()
    assert {path.name: path.read_bytes()
            for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("rate, cause", [
    ("1000", "survival curve empties too quickly to fit; reduce t_max"),
    ("1e-300", "no atom decays within t_max, so the survival curve never "
               "falls; increase t_max"),
], ids=["empties-in-one-bin", "never-falls"])
def test_decay_survival_curve_that_cannot_be_fitted_exits_3(rate, cause,
                                                            tmp_path, capsys):
    code = cli.main(["decay", f"rate_lambda={rate}", "--jobs", "1",
                     "--out", str(tmp_path)])
    assert code == 3
    assert capsys.readouterr().err == (f"runtime failure: ValueError: "
                                       f"{cause}\n")


def test_main_validates_once_through_the_module_global(tmp_path,
                                                       monkeypatch):
    # perfbench times a run's set-up up to the return of cli.validate, which
    # it replaces with a stamping wrapper: main must call the module global
    # exactly once, before the run creates its output directory.
    out, seen = tmp_path / "out", []
    validate = cli.validate

    def stamped(config):
        violations = validate(config)
        seen.append(out.exists())
        return violations

    monkeypatch.setattr(cli, "validate", stamped)
    assert cli.main(["mcint", "samples=4000", "--jobs", "1",
                     "--out", str(out)]) == 0
    assert seen == [False]
    assert (out / "manifest.json").exists()


def test_main_bad_override_and_missing_config_exit_2(tmp_path, capsys):
    assert cli.main(["mcint", "--out", str(tmp_path), "samples"]) == 2
    assert cli.main(["mcint", "--config", str(tmp_path / "none.ini"),
                     "--out", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("content, message", [
    (b"n_atoms = 5\n", "bad.ini: File contains no section headers"),
    (b"[decay]\nn_atoms = 5%\n", "n_atoms: could not parse '5%'"),
    (b"[decay]\nn_atoms = 5\nn_atoms = 6\n", "bad.ini: While reading"),
    (b"[decay]\nn_atoms = \xff\n", "bad.ini: 'utf-8' codec can't decode"),
], ids=["no-section", "percent-is-literal", "duplicate-key", "not-utf8"])
def test_malformed_config_file_exits_2(tmp_path, capsys, content, message):
    ini = tmp_path / "bad.ini"
    ini.write_bytes(content)
    out = tmp_path / "out"
    assert cli.main(["decay", "--config", str(ini), "--out", str(out),
                     "--jobs", "1"]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_file_merges_under_overrides(tmp_path):
    ini = tmp_path / "runs.ini"
    ini.write_text("[mcint]\ndim = 3\nsamples = 5000\n")
    out = tmp_path / "out"
    code = cli.main(["mcint", "--config", str(ini), "--out", str(out),
                     "samples=7000"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["parameters"]["dim"] == 3         # from the file
    assert manifest["parameters"]["samples"] == 7000  # flag wins
    assert manifest["parameters"]["integrand"] == "ball"  # default


def test_main_seed_flag_changes_outputs(tmp_path):
    outs = []
    for seed in ("40", "41"):
        out = tmp_path / seed
        assert cli.main(["decay", "--seed", seed, "--out", str(out),
                         "n_atoms=2000"]) == 0
        outs.append((out / "decay.csv").read_bytes())
    assert outs[0] != outs[1]


def test_memory_anneal_task_matches_exhaustive_reference(tmp_path):
    cli.run(ExperimentConfig(
        "memory",
        {"task": "anneal", "n": "10", "instances": "4",
         "levels": "60", "sweeps_per_level": "30"},
        output_dir=str(tmp_path), seed=12))
    summary = json.loads((tmp_path / "memory_summary.json").read_text())
    assert summary["match_rate"] == 1.0
    header, rows = _read_csv(tmp_path / "memory.csv")
    assert header == ["replica", "instance", "annealed_energy",
                      "ground_energy", "matched"]
    for row in rows:
        assert math.isclose(float(row[2]), float(row[3]), abs_tol=1e-9)


def test_spectrum_summary_orders_levels(tmp_path):
    cli.run(ExperimentConfig("spectrum", {"n_levels": "4",
                                          "n_points": "300"},
                             output_dir=str(tmp_path)))
    header, rows = _read_csv(tmp_path / "spectrum.csv")
    energies = [float(row[2]) for row in rows]
    assert energies == sorted(energies)
    assert rows[-1][3] == "nan"  # top level has no gap above
    summary = json.loads((tmp_path / "spectrum_summary.json").read_text())
    assert abs(summary["ground_energy"] - 0.5) < 5e-3
    assert abs(summary["gap_mean"] - 1.0) < 5e-3
