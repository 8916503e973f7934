"""The engine choice exists only where two tiers really differ.

Every single-server experiment runs on the one exact engine, so no spec but
``cluster`` takes an ``engine`` parameter, and the fleet-level choices
(``repro run/sweep/batch --engine``, ``repro serve --engine``,
``build_cluster_engine``, ``run_cluster_experiment``, session manifests)
accept exactly ``event`` and ``fluid``.
"""

import pytest

from repro import api
from repro.api.cli import main
from repro.cluster.coordinator import NoClusterRejuvenation
from repro.experiments.cluster import build_cluster_engine, run_cluster_experiment
from repro.experiments.scenarios import ClusterScenario
from repro.service.session import SessionRecorder, build_service_manifest


def test_single_server_spec_rejects_an_engine():
    with pytest.raises(ValueError, match="unknown parameter"):
        api.run("exp41", engine="event")


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "exp41", "--engine", "per_second"],
        ["run", "cluster", "--engine", "per_second"],
        ["serve", "--engine", "per_second"],
    ],
)
def test_cli_rejects_the_per_second_engine(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2  # argparse usage error
    assert "invalid choice: 'per_second'" in capsys.readouterr().err


def test_cluster_builders_accept_only_event_and_fluid():
    scenario = ClusterScenario.fast()
    with pytest.raises(ValueError, match="per_second"):
        build_cluster_engine(scenario, NoClusterRejuvenation(), fleet_engine="per_second")
    with pytest.raises(ValueError, match="per_second"):
        run_cluster_experiment(scenario, engine="per_second")
    with pytest.raises(ValueError, match="per_second"):
        build_service_manifest(fleet_engine="per_second")
    for tier in ("event", "fluid"):
        engine = build_cluster_engine(scenario, NoClusterRejuvenation(), fleet_engine=tier)
        assert engine.current_tick == 0


def test_replaying_a_per_second_session_fails_naming_the_engine(tmp_path, capsys):
    manifest = build_service_manifest(horizon_seconds=600.0)
    manifest["fleet_engine"] = "per_second"
    SessionRecorder(tmp_path / "session").write_manifest(manifest)
    with pytest.raises(SystemExit) as exit_info:
        main(["serve", "--replay", str(tmp_path / "session")])
    assert exit_info.value.code != 0
    assert "per_second" in str(exit_info.value.code)
