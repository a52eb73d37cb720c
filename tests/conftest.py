"""Session-wide test settings."""

import os

import pytest


@pytest.fixture(autouse=True, scope="session")
def flight_recorder_dumps_in_tmp(tmp_path_factory):
    """Point flight-recorder auto-dumps (crash restarts, breaker trips)
    at a session temp directory instead of the user's cache."""
    saved = os.environ.get("REPRO_FLIGHTREC_DIR")
    os.environ["REPRO_FLIGHTREC_DIR"] = str(
        tmp_path_factory.mktemp("flightrec"))
    yield
    if saved is None:
        os.environ.pop("REPRO_FLIGHTREC_DIR", None)
    else:
        os.environ["REPRO_FLIGHTREC_DIR"] = saved
