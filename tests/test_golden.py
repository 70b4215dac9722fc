"""Golden SHA-256 digests that pin outputs across commits.

Criterion 11 shows that a run equals its own rerun under the same code.  The
tables here show that the code still computes what it computed when they were
recorded: every data file ``cli.run`` writes for each golden configuration
(``util.RERUN_CONFIGS``, plus ``util.ANNEAL_CONFIG``), and the raw Metropolis kernel output (paths and
action trace) of a free and a harmonic three-chain run.  Under
pytest each golden configuration runs once per session (the ``golden_run``
fixture in conftest.py), and criterion 11 reruns that same run.  The tables
were recorded at ``jobs=1``; criterion 11 reruns at the default worker
count, and the anneal pin runs at one and two workers.

numpy does not promise identical ``Generator`` streams across its versions
(NEP 19), so a mismatch right after a numpy upgrade may come from the
generator rather than from stochlab.  Regenerate a table only on purpose,
with a CHANGES.md entry naming what changed and why; running this file
prints fresh tables::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from util import (ANNEAL_CONFIG, RERUN_CONFIGS, golden_seed, needs_two_cpus,
                  run_golden, run_runner)

from stochlab import cli
from stochlab.core import RngStream
from stochlab.paths import EuclideanAction, Lattice, metropolis_batch

GOLDEN_CLI = {
    "clt": {
        "clt.csv":
            "f990dd43cc5fccff7695d09f4d62ca03aecaea532ba01f51dee7ec7e4b7d609e",
        "clt_summary.json":
            "7dac303f1c19eb2b2e97edb1dfacadc19b56de5fc3461c2f7f8ac2dd1c1132f9",
    },
    "decay": {
        "decay.csv":
            "f637ea76a13af86d64c651d018f8c6fa053087ec81340c65c625e5d18114fce5",
        "decay_summary.json":
            "4b56650fa9c63e57e80d3386b1af7b86277b13895a17374e4c5f575951f0528f",
    },
    "diffuse": {
        "diffuse.csv":
            "aa5856a4126883b2ce4e1c22c05096136d5fb5f9f2577d0ff54d84f2a7645f99",
        "diffuse_summary.json":
            "702ad8fcb823e438684986fe97c740336c1b5bdcda695bda8ea8ff4eaa650272",
    },
    "interfere": {
        "interfere.csv":
            "513bc8a5a5f27d41482278d0daaff62c3891dfe20122ba1ed14e2f4c2f1f8452",
        "interfere_summary.json":
            "7ae4c04f85a93356c02399bd8ba16f2253e23afae68ddad271b98737f1df5637",
    },
    "mcint": {
        "mcint.csv":
            "9aaa23c46594ab53c883c040b0fc4e2fd50ce4b18e5f41dc7bcae19393e3c24f",
        "mcint_summary.json":
            "6166a107c731a1e6588cdad83b26250d95c95f65aed9f45cba3b1723171e2b17",
    },
    "memory": {
        "memory.csv":
            "8bcca9ea7557798331cd3acec6a9cbfa9191dea96aa00a48828cfab5a0e95b51",
        "memory_summary.json":
            "f67928bfdeaa79f025637fe4723d7027db422d43dcb7aeebe1e6526de1815b8c",
    },
    "network": {
        "network.csv":
            "adbba62e45fbc9a5f86eabfb80fcc1b80025c3b35a5c34224d5b8c541830f5c5",
        "network_summary.json":
            "0b198bc71d66f3af234e145fbb63f7ef652f58d8b196abf656651536268a2f3c",
        "replica0_network_sample.edges":
            "227b9179d549bf048e6cffd9499f1d0085b3620407e949cc719c79112052aef2",
        "replica1_network_sample.edges":
            "d839ab91ec2832781b81fc69927ec8f607bed69d95e59a68886e2b0548557e9e",
    },
    "paths": {
        "paths.csv":
            "55b50357994a1436083f86cce9b4d4f1b254c5d473840445a9caaed8f26d14f8",
        "paths_summary.json":
            "490448d624c0ecbbd86f145a0e0b963471edc1de9785e9433cde2e0ade06d6ad",
    },
    "resonance": {
        "resonance.csv":
            "35f2bb01127b607782edd494ff8afa39251546aff24cc814da2024dea9d923a1",
        "resonance_summary.json":
            "e1276dde3332fa14d343b3edadd7adf3ea3b2a5611293434679c4f084ce9c35b",
    },
    "sandpile": {
        "sandpile.csv":
            "68b393fc604318ee225793ce031869925cf7246f1bdb774440fb4c48eb8cec8d",
        "sandpile_summary.json":
            "64156d91d25f9f2faf3c39c225c4a8a93b2180c3249379dcb01731ad8c2d6208",
    },
    "search": {
        "search.csv":
            "9277ddc189f198b0fd15a24615d7868e65805b68d324f100430a69bc6e1d12cd",
        "search_summary.json":
            "221f1b3866133de81a63775b8102a7ee01ed5d103d43e36a824a77a29e2c9ee7",
    },
    "spectrum": {
        "spectrum.csv":
            "21d499ce817356eef20394f88ec05a1d7909717756dd2c860e07a5697cb70ec6",
        "spectrum_summary.json":
            "a7a5e8a4786653dc0fa7abfe3b1459c4f7c0d27a9cdfa566a996641cb3a9fb6d",
    },
    "uncertainty": {
        "uncertainty.csv":
            "c30210b0c1c250a79662f65eb0fbfbc5b8487de072077b64e0869670fff0ff45",
        "uncertainty_summary.json":
            "3111f40a2d344ad5feb323efdd497cbccc95693dd8de9888004cf42a0239c005",
    },
}

GOLDEN_ANNEAL = {
    "memory.csv":
        "e5e9369b0cba73ebcb97813c6d7d3a401a4480e2ec09d420463de3d46ca2e631",
    "memory_summary.json":
        "4f9a7b2c5790ed712cab264d624cfe93e7cfbbff284b8e165f4fc3454728d244",
}

GOLDEN_KERNEL = {
    "free":
        "855fe95ee4d79c382a79082d2e1bef4a10b3ca0d8d645fb7ed7e425664d62550",
    "harmonic":
        "3901dc11c0a4f39f466f53ee5c7f6ccc6ed078e7d48cc3623bf1cabc3b25913f",
}

# name -> (potential, n_t, a_t).  The odd n_t gives the two checkerboard
# groups different sizes; thermalization is deliberately not a multiple of
# the 25-sweep tuning interval.
_KERNEL_CASES = {
    "free": (lambda x: np.zeros_like(x), 64, 0.05),
    "harmonic": (lambda x: 0.5 * x**2, 65, 0.1),
}


def _digests(manifest: cli.RunManifest) -> dict:
    return {entry["path"]: entry["sha256"] for entry in manifest.outputs}


def _kernel_digest(case: str) -> str:
    potential, n_t, a_t = _KERNEL_CASES[case]
    dynamics = EuclideanAction(potential=potential, a_t=a_t)
    lattice = Lattice(n_t=n_t)
    base = RngStream(7, 0)
    ensembles = metropolis_batch(
        dynamics, lattice, [base.substream(c) for c in range(3)], sweeps=600,
        thermalization=210)
    digest = hashlib.sha256()
    for ensemble in ensembles:
        for array in (ensemble.paths, ensemble.action_trace):
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def test_golden_tables_cover_every_experiment_and_kernel_case():
    assert set(GOLDEN_CLI) == set(cli.EXPERIMENTS) == set(RERUN_CONFIGS)
    assert set(GOLDEN_KERNEL) == set(_KERNEL_CASES)


@pytest.mark.parametrize("experiment", sorted(RERUN_CONFIGS))
def test_cli_data_files_match_golden_digests(experiment, golden_run):
    assert _digests(golden_run(experiment)) == GOLDEN_CLI[experiment]


# run_runner is how the criteria run the CLI; resonance takes about 2 s a replica.
@pytest.mark.parametrize("experiment",
                         ["clt", "diffuse", "memory", "paths", "uncertainty"])
def test_run_runner_gives_the_summary_cli_run_writes(experiment, golden_run):
    stream = RngStream(golden_seed(experiment), 0).substream(0)
    summary = run_runner(experiment, stream, **RERUN_CONFIGS[experiment]).summary
    written = Path(golden_run(experiment).output_dir, f"{experiment}_summary.json")
    assert (json.loads(json.dumps(summary, default=cli._numpy_scalar))
            == json.loads(written.read_text())["per_replica"][0])


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_two_cpus)])
def test_memory_anneal_matches_golden_digests(jobs, tmp_path):
    manifest = run_golden("memory", tmp_path, ANNEAL_CONFIG, jobs=jobs)
    assert manifest.jobs == jobs
    assert _digests(manifest) == GOLDEN_ANNEAL


@pytest.mark.parametrize("case", sorted(_KERNEL_CASES))
def test_metropolis_kernel_matches_golden_digest(case):
    assert _kernel_digest(case) == GOLDEN_KERNEL[case]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print("GOLDEN_CLI = {")
        for name in sorted(RERUN_CONFIGS):
            print(f'    "{name}": {{')
            manifest = run_golden(name, f"{scratch}/{name}")
            for path, sha in _digests(manifest).items():
                print(f'        "{path}":\n            "{sha}",')
            print("    },")
        print("}\n\nGOLDEN_ANNEAL = {")
        manifest = run_golden("memory", f"{scratch}/anneal", ANNEAL_CONFIG)
        for path, sha in _digests(manifest).items():
            print(f'    "{path}":\n        "{sha}",')
        print("}\n\nGOLDEN_KERNEL = {")
        for case in sorted(_KERNEL_CASES):
            print(f'    "{case}":\n        "{_kernel_digest(case)}",')
        print("}")
