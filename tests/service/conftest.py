"""Shared fixtures for the fleet-service tests.

Everything here runs the ``fast`` cluster scenario with the ``none`` or
``time_based`` policy on short horizons: no predictor training, so the
whole service suite stays in the seconds range while exercising the real
engines end to end.
"""

import json
import time

import pytest

from repro.service.session import build_service_manifest


#: Wall seconds per simulated tick of the live sessions that take requests.
#: An unpaced stepper re-takes the session lock the moment it lets go, so a
#: request could wait until the horizon; paced, it sleeps between chunks.
PACE = 0.001


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)


def wait_for_tick(session, tick, timeout=60.0):
    deadline = time.monotonic() + timeout
    while session.fleet_status()["tick"] < tick:
        assert time.monotonic() < deadline, f"fleet never reached tick {tick}"
        time.sleep(0.01)


@pytest.fixture
def fast_manifest() -> dict:
    """A small live-serveable fleet: 3 nodes, 1-hour horizon, no policy."""
    return build_service_manifest(
        preset="fast", kind="memory", policy="none", horizon_seconds=3600.0
    )


@pytest.fixture
def tiny_manifest() -> dict:
    """An even shorter horizon for HTTP tests (finishes in a few seconds)."""
    return build_service_manifest(
        preset="fast", kind="memory", policy="none", horizon_seconds=1800.0
    )
