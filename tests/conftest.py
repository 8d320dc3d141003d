import os
import pathlib
import sys

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(pathlib.Path(__file__).parent))

# differing_executors is suppressed because the acceptance gate re-runs the
# property suites under its own counting wrapper, which hypothesis would
# otherwise flag as a second executor for the same test.
settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much,
                           HealthCheck.data_too_large,
                           HealthCheck.differing_executors],
)
settings.load_profile("suite")

FIXTURES = pathlib.Path(__file__).parent.parent / "fixtures"


def bare_env(**env: str) -> dict[str, str]:
    """A minimal environment for a child Python: ``env`` on a fixed PATH,
    with the caller's PYTHONDONTWRITEBYTECODE, if set, passed on, so that
    a run asked to write no bytecode writes none in its children either."""
    env.setdefault("PATH", "/usr/bin:/bin")
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    return env


@pytest.fixture
def fixtures() -> pathlib.Path:
    return FIXTURES
