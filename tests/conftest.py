"""Session-wide fixtures and the property-test profile."""

import os

import pytest
from hypothesis import settings

from util import no_fork, run_golden

# Property tests draw the same examples on every run, keep no example
# database, and have no per-example deadline; each keeps its own
# ``max_examples``.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def golden_run(tmp_path_factory):
    """``golden_run(experiment)``: that golden configuration's manifest.

    Each configuration runs once, on first request, and every later request
    in the session shares its output directory, so criterion 11 and the
    golden-digest table check one run between them.  Callers must not write
    into the shared directory.  The runs are at ``jobs=1``, and fail if
    anything in them forks a worker process.
    """
    runs = {}

    def get(experiment: str):
        if experiment not in runs:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(os, "fork", no_fork)
                runs[experiment] = run_golden(
                    experiment, tmp_path_factory.mktemp(f"golden_{experiment}"))
        return runs[experiment]

    return get
