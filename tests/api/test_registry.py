"""Registry completeness and the declarative spec machinery."""

import importlib

import pytest

import repro.experiments
from repro import api
from repro.api.spec import ExperimentSpec, ParamSpec, common_params


def _resolve_dotted(path: str):
    module_name, _, attribute = path.rpartition(".")
    return getattr(importlib.import_module(module_name), attribute)


class TestRegistryCompleteness:
    def test_every_spec_wraps_a_real_callable(self):
        for name in api.list_experiments():
            spec = api.get_spec(name)
            implementation = _resolve_dotted(spec.implementation)
            assert callable(implementation), name

    def test_every_experiment_driver_is_registered(self):
        """Each public driver in repro.experiments is behind exactly one spec."""
        wrapped = {api.get_spec(name).implementation.rpartition(".")[2] for name in api.list_experiments()}
        drivers = {
            public
            for public in repro.experiments.__all__
            if public.startswith("run_experiment_")
            or public in ("run_cluster_experiment", "run_lifecycle_experiment")
            or public.startswith("figure")
            or public in (
                "run_window_sweep",
                "run_derived_variable_ablation",
                "run_smoothing_ablation",
                "run_security_margin_sweep",
            )
        }
        assert drivers, "driver name scan came back empty"
        assert drivers <= wrapped, f"unregistered drivers: {sorted(drivers - wrapped)}"

    def test_all_specs_lead_with_common_params(self):
        for name in api.list_experiments():
            spec = api.get_spec(name)
            assert [param.name for param in spec.params[:2]] == ["scale", "seed"], name

    def test_expected_names_present(self):
        names = set(api.list_experiments())
        assert {
            "exp41", "exp42", "exp43", "exp44", "figure1", "figure2", "cluster", "lifecycle"
        } <= names
        assert {n for n in names if n.startswith("ablation_")} == {
            "ablation_window",
            "ablation_derived",
            "ablation_smoothing",
            "ablation_margin",
        }

    def test_unknown_name_raises_with_listing(self):
        with pytest.raises(KeyError, match="exp41"):
            api.get_spec("nope")

    def test_duplicate_registration_rejected(self):
        spec = api.get_spec("exp41")
        with pytest.raises(ValueError, match="already registered"):
            api.register(spec)


class TestParamSpec:
    def test_coerces_cli_strings(self):
        param = ParamSpec(name="n", type="int", default=3, description="d")
        assert param.validate("17") == 17
        param = ParamSpec(name="x", type="float", default=0.5, description="d")
        assert param.validate("0.25") == 0.25
        param = ParamSpec(name="b", type="bool", default=False, description="d")
        assert param.validate("yes") is True and param.validate("0") is False

    def test_rejects_bad_values(self):
        param = ParamSpec(name="n", type="int", default=3, description="d")
        with pytest.raises(ValueError, match="cannot parse"):
            param.validate("three")
        with pytest.raises(ValueError, match="expects int"):
            param.validate(1.5)
        with pytest.raises(ValueError, match="unsupported parameter type"):
            ParamSpec(name="n", type="list", default=[], description="d")

    def test_choices_enforced(self):
        param = ParamSpec(name="k", type="str", default="a", description="d", choices=("a", "b"))
        assert param.validate("b") == "b"
        with pytest.raises(ValueError, match="must be one of"):
            param.validate("c")


class TestSpecResolution:
    def test_defaults_merge_with_overrides(self):
        spec = api.get_spec("cluster")
        resolved = spec.resolve({"kind": "threads", "seed": "11"})
        assert resolved["kind"] == "threads"
        assert resolved["seed"] == 11
        assert resolved["scale"] == "small"
        assert resolved["engine"] == "event"

    def test_unknown_parameter_rejected(self):
        spec = api.get_spec("exp41")
        with pytest.raises(ValueError, match="unknown parameter"):
            spec.resolve({"bogus": 1})

    def test_spec_must_lead_with_common_triple(self):
        """Specs must lead with the common scale/seed pair."""
        with pytest.raises(ValueError, match="must lead with scale/seed"):
            ExperimentSpec(
                name="x",
                description="d",
                category="experiment",
                params=(ParamSpec(name="n", type="int", default=1, description="d"),),
                implementation="repro.experiments.exp41.run_experiment_41",
                runner=lambda **_: ({}, {}),
            )

    def test_describe_lists_every_parameter(self):
        spec = api.get_spec("figure2")
        text = spec.describe()
        for param in spec.params:
            assert f"--{param.name}" in text

    def test_common_params_are_scale_seed_engine(self):
        """scale and seed are common; engine belongs to the cluster spec alone."""
        assert [p.name for p in common_params(0)] == ["scale", "seed"]
        with_engine = [
            name
            for name in api.list_experiments()
            if "engine" in {param.name for param in api.get_spec(name).params}
        ]
        assert with_engine == ["cluster"]
        assert [p.name for p in api.get_spec("cluster").params[:3]] == ["scale", "seed", "engine"]

    def test_cluster_seed_semantics_are_documented(self):
        """The cluster seed drives the fleet run; training seeds stay fixed."""
        seed_param = api.get_spec("cluster").param("seed")
        assert "training" in seed_param.description


class TestClusterEngineTiers:
    """The cluster spec's fluid tier and first-class horizon parameter."""

    def test_cluster_engine_choices_include_fluid(self):
        from repro.api.spec import CLUSTER_ENGINES
        from repro.experiments.cluster import FLEET_ENGINES

        engine_param = api.get_spec("cluster").param("engine")
        assert engine_param.choices == CLUSTER_ENGINES == FLEET_ENGINES == ("event", "fluid")
        assert engine_param.default == "event"

    def test_fluid_is_cluster_only(self):
        for name in api.list_experiments():
            if name == "cluster":
                continue
            with pytest.raises(KeyError):
                api.get_spec(name).param("engine")
        with pytest.raises(ValueError, match="unknown parameter"):
            api.get_spec("exp41").resolve({"engine": "fluid"})

    def test_horizon_is_a_first_class_parameter(self):
        horizon = api.get_spec("cluster").param("horizon_seconds")
        assert horizon.type == "float"
        assert horizon.default == 0.0
        resolved = api.get_spec("cluster").resolve({"horizon_seconds": "1800"})
        assert resolved["horizon_seconds"] == 1800.0


class TestVersionSingleSourcing:
    def test_version_is_a_semver_string(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_regex_fallback_matches_tomllib_parse(self, monkeypatch):
        """Python 3.10 has no tomllib; the regex path must agree with it."""
        import repro

        with_tomllib = repro._load_version()
        monkeypatch.setattr(repro, "tomllib", None)
        assert repro._load_version() == with_tomllib == repro.__version__
