"""The sweep layer: expansion syntax, parallel parity, aggregation, failures."""

import json

import pytest

from repro import api
from repro.api.cli import main
from repro.api.registry import REGISTRY
from repro.api.spec import ExperimentSpec, common_params
from repro.api.store import collect_results, summary_json
from repro.api.sweep import expand_sweep, parse_values


def _param(name: str):
    return api.get_spec("figure1").param(name)


class TestParseValues:
    def test_int_range_is_inclusive(self):
        assert parse_values(_param("seed"), "1..4") == [1, 2, 3, 4]

    def test_int_range_with_step(self):
        assert parse_values(_param("seed"), "1..9..3") == [1, 4, 7]

    def test_single_value_and_list(self):
        assert parse_values(_param("seed"), "7") == [7]
        assert parse_values(_param("seed"), "3,1,2") == [3, 1, 2]
        assert parse_values(_param("scale"), "small,paper") == ["small", "paper"]

    def test_descending_range_rejected(self):
        with pytest.raises(ValueError, match="descending"):
            parse_values(_param("seed"), "4..1")

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="step"):
            parse_values(_param("seed"), "1..4..0")

    def test_range_on_non_int_parameter_rejected(self):
        with pytest.raises(ValueError, match="int parameters only"):
            parse_values(_param("scale"), "1..4")

    def test_list_values_are_validated_against_choices(self):
        with pytest.raises(ValueError, match="must be one of"):
            parse_values(_param("scale"), "small,galactic")

    def test_empty_list_element_rejected(self):
        with pytest.raises(ValueError, match="empty value"):
            parse_values(_param("seed"), "1,,2")


class TestExpansion:
    def test_points_are_ordered_and_fully_resolved(self):
        points = expand_sweep("figure1", {"seed": "1..2", "scale": "small,paper"})
        labels = [(p.params["scale"], p.params["seed"]) for p in points]
        # Spec order: scale is the outer axis, seed the inner one.
        assert labels == [("small", 1), ("small", 2), ("paper", 1), ("paper", 2)]
        assert all("engine" not in p.params for p in points)

    def test_expansion_is_deterministic(self):
        axes = {"seed": "5..8"}
        assert expand_sweep("figure*", axes) == expand_sweep("figure*", axes)

    def test_duplicate_points_collapse(self):
        assert len(expand_sweep("figure1", {"seed": "1,1,1"})) == 1

    def test_version_is_part_of_the_identity(self):
        (a,) = expand_sweep("figure1", {"seed": "1"}, version="1.0")
        (b,) = expand_sweep("figure1", {"seed": "1"}, version="2.0")
        assert a.key != b.key and a.filename != b.filename

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            expand_sweep("figure1", {"num_cycles": "1..3"})  # figure2-only extra

    def test_unmatched_pattern_rejected(self):
        with pytest.raises(ValueError, match="no experiment matches"):
            expand_sweep("zzz*", {})

    def test_cli_dry_run_prints_points_without_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "never-created"
        code = main(
            ["sweep", "figure1", "--seed", "1..3", "--dry-run", "--out-dir", str(out_dir)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3 point(s) (dry run)" in out
        assert not out_dir.exists()


class TestParallelParity:
    """workers=1 and workers=4 must write byte-identical artifact sets."""

    SWEEP = ["sweep", "figure*", "--seed", "1..2", "--scale", "small"]

    def _artifacts(self, directory):
        return {path.name: path.read_bytes() for path in directory.glob("*.json")}

    def test_workers_1_and_4_byte_identical(self, tmp_path, capsys):
        sequential, parallel = tmp_path / "w1", tmp_path / "w4"
        assert main(self.SWEEP + ["--workers", "1", "--out-dir", str(sequential)]) == 0
        assert main(self.SWEEP + ["--workers", "4", "--out-dir", str(parallel)]) == 0
        capsys.readouterr()
        first, second = self._artifacts(sequential), self._artifacts(parallel)
        assert sorted(first) == sorted(second) and len(first) == 4
        assert first == second

    def test_warm_rerun_hits_every_point(self, tmp_path, capsys):
        out_dir = tmp_path / "warm"
        assert main(self.SWEEP + ["--workers", "4", "--out-dir", str(out_dir)]) == 0
        before = self._artifacts(out_dir)
        assert main(self.SWEEP + ["--workers", "4", "--out-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "0 ran, 4 cached, 0 failed" in out
        assert self._artifacts(out_dir) == before

    def test_collect_folds_the_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "collected"
        assert main(self.SWEEP + ["--out-dir", str(out_dir), "--workers", "1"]) == 0
        summary = collect_results(out_dir)
        assert summary["num_runs"] == 4
        assert summary["by_name"]["figure1"]["runs"] == 2
        assert summary["by_name"]["figure2"]["runs"] == 2
        crash = summary["by_name"]["figure1"]["metrics"]["crash_time_seconds"]
        assert crash["min"] <= crash["mean"] <= crash["max"]
        assert crash["runs_with_metric"] == 2
        # The summary serializes canonically and the CLI agrees with the API.
        assert summary_json(summary) == summary_json(collect_results(out_dir))
        summary_file = tmp_path / "summary.json"
        assert main(["collect", str(out_dir), "--out", str(summary_file)]) == 0
        assert json.loads(summary_file.read_text())["num_runs"] == 4

    def test_collect_counts_unreadable_files(self, tmp_path, capsys):
        out_dir = tmp_path / "partial"
        out_dir.mkdir()
        (out_dir / "truncated.json").write_text('{"schema_version":')
        assert main(["collect", str(out_dir)]) == 0
        assert collect_results(out_dir)["skipped_files"] == ["truncated.json"]


def _register_stub(name: str, fail: bool) -> None:
    def runner(scale: str, seed: int):
        if fail:
            raise RuntimeError(f"{name} exploded")
        return {"ok": True}, {}

    api.register(
        ExperimentSpec(
            name=name,
            description=f"stub {name}",
            category="experiment",
            params=common_params(seed=1),
            implementation="repro.experiments.exp41.run_experiment_41",
            runner=runner,
        )
    )


@pytest.fixture()
def stub_experiments():
    names = ["zstub_ok", "zstub_bad1", "zstub_bad2"]
    _register_stub("zstub_ok", fail=False)
    _register_stub("zstub_bad1", fail=True)
    _register_stub("zstub_bad2", fail=True)
    try:
        yield names
    finally:
        for name in names:
            REGISTRY.pop(name, None)


class TestFailureAggregation:
    def test_batch_reports_every_failure_and_still_runs_the_rest(
        self, tmp_path, capsys, stub_experiments
    ):
        code = main(["batch", "zstub*", "--workers", "1", "--out-dir", str(tmp_path / "r")])
        assert code == 1
        captured = capsys.readouterr()
        assert "1 ran, 0 cached, 2 failed" in captured.out
        assert "zstub_bad1" in captured.err and "zstub_bad2" in captured.err
        assert "RuntimeError: zstub_bad1 exploded" in captured.out
        # The healthy point's artifact landed despite its failing neighbours.
        assert (tmp_path / "r" / "zstub_ok.json").exists()
        assert not (tmp_path / "r" / "zstub_bad1.json").exists()

    def test_report_order_follows_points_not_completion(self, tmp_path, capsys, stub_experiments):
        main(["batch", "zstub*", "--workers", "1", "--out-dir", str(tmp_path / "r")])
        out = capsys.readouterr().out
        assert out.index("zstub_ok") < out.index("zstub_bad1") < out.index("zstub_bad2")

    def test_key_mismatch_is_caught_as_a_failure(self, tmp_path):
        (point,) = expand_sweep("figure1", {"seed": "1"})
        forged = api.RunPoint(
            name=point.name, params=point.params, key="0" * 64, filename=point.filename
        )
        (outcome,) = api.run_points([forged], api.ResultStore(tmp_path), workers=1)
        assert outcome.status == "failed"
        assert "content key mismatch" in outcome.error


class TestTracedSweeps:
    """--trace writes worker-count-invariant sidecars next to the envelopes."""

    SWEEP = ["sweep", "figure1", "--seed", "1..2", "--scale", "small", "--trace"]

    def _sidecars(self, directory):
        return {path.name: path.read_bytes() for path in directory.glob("*.trace.jsonl")}

    def test_workers_1_and_4_sidecars_byte_identical(self, tmp_path, capsys):
        sequential, parallel = tmp_path / "w1", tmp_path / "w4"
        assert main(self.SWEEP + ["--workers", "1", "--out-dir", str(sequential)]) == 0
        assert main(self.SWEEP + ["--workers", "4", "--out-dir", str(parallel)]) == 0
        out = capsys.readouterr().out
        first, second = self._sidecars(sequential), self._sidecars(parallel)
        assert sorted(first) == sorted(second) and len(first) == 2
        assert first == second  # full sidecar bytes, not just the digest
        assert out.count("trace=") == 4  # every ran point reports its digest

    def test_every_envelope_gets_a_sidecar(self, tmp_path, capsys):
        out_dir = tmp_path / "traced"
        assert main(self.SWEEP + ["--workers", "1", "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        for envelope in out_dir.glob("*.json"):
            assert envelope.with_name(envelope.stem + ".trace.jsonl").exists()

    def test_cached_points_keep_their_sidecars(self, tmp_path, capsys):
        out_dir = tmp_path / "warm"
        assert main(self.SWEEP + ["--workers", "1", "--out-dir", str(out_dir)]) == 0
        before = self._sidecars(out_dir)
        assert main(self.SWEEP + ["--workers", "1", "--out-dir", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "0 ran, 2 cached, 0 failed" in out
        assert self._sidecars(out_dir) == before

    def test_untraced_sweep_writes_no_sidecars(self, tmp_path, capsys):
        out_dir = tmp_path / "plain"
        assert main(["sweep", "figure1", "--seed", "1", "--scale", "small",
                     "--workers", "1", "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        assert self._sidecars(out_dir) == {}

    def test_collect_reports_sidecar_digests(self, tmp_path, capsys):
        out_dir = tmp_path / "collected"
        assert main(self.SWEEP + ["--workers", "1", "--out-dir", str(out_dir)]) == 0
        summary = collect_results(out_dir)
        for row in summary["runs"]:
            assert row["trace"] == row["file"].removesuffix(".json") + ".trace.jsonl"
            assert len(row["trace_digest"]) == 64
        assert main(["collect", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert summary["runs"][0]["trace_digest"][:12] in out

    def test_orphaned_sidecar_fails_collection_loudly(self, tmp_path, capsys):
        out_dir = tmp_path / "orphaned"
        assert main(self.SWEEP + ["--workers", "1", "--out-dir", str(out_dir)]) == 0
        capsys.readouterr()
        victim = next(out_dir.glob("*.json"))
        orphan = victim.with_name(victim.stem + ".trace.jsonl")
        victim.unlink()  # sidecar now has no envelope
        with pytest.raises(ValueError, match=orphan.name):
            collect_results(out_dir)
        with pytest.raises(SystemExit, match="orphaned trace sidecar"):
            main(["collect", str(out_dir)])
