"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the unit of the unified API: a frozen, purely
descriptive record of one runnable experiment — its name, what it
reproduces, the parameters it accepts (each a :class:`ParamSpec` with a
type, a default and optionally a closed set of choices) and the adapter
function that executes it.  Specs are data, not code: the CLI renders them
(``repro list`` / ``repro describe``), the dispatcher validates and resolves
parameters against them, and every :class:`~repro.api.result.RunResult`
echoes the spec it came from.

Every spec shares two common parameters:

``scale``
    ``"small"`` (the scaled-down testbed used by tests and examples, runs in
    seconds) or ``"paper"`` (the configuration closest to the paper's
    1 GB-heap testbed, runs for minutes to hours).
``seed``
    The master seed of every simulated run; results are bit-for-bit
    reproducible given the same seed.

Every simulated run rides the exact event-driven engine.  Only the
``cluster`` spec adds a third parameter, ``engine``, because only there do
two tiers really differ: ``"event"`` (exact) or ``"fluid"``, the
approximate numpy mean-field fleet tier for million-user / thousand-node
runs (see :data:`CLUSTER_ENGINES`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.experiments.cluster import FLEET_ENGINES

__all__ = [
    "ParamSpec",
    "ExperimentSpec",
    "common_params",
    "SCALES",
    "CLUSTER_ENGINES",
]

#: The two testbed scales every experiment accepts.
SCALES = ("small", "paper")

#: The fleet tiers the cluster experiment's ``engine`` parameter accepts:
#: exact event-driven or the approximate fluid tier.
CLUSTER_ENGINES = FLEET_ENGINES

_PARAM_TYPES: dict[str, type] = {"int": int, "float": float, "str": str, "bool": bool}


@dataclass(frozen=True)
class ParamSpec:
    """One parameter of an experiment: name, type, default and choices."""

    name: str
    type: str
    default: Any
    description: str
    choices: tuple[Any, ...] | None = None

    def __post_init__(self) -> None:
        if self.type not in _PARAM_TYPES:
            raise ValueError(f"unsupported parameter type {self.type!r}")

    def coerce(self, raw: Any) -> Any:
        """Cast ``raw`` (possibly a CLI string) to the declared type."""
        target = _PARAM_TYPES[self.type]
        if isinstance(raw, str) and target is not str:
            if target is bool:
                lowered = raw.strip().lower()
                if lowered in ("true", "1", "yes", "on"):
                    return True
                if lowered in ("false", "0", "no", "off"):
                    return False
                raise ValueError(f"parameter {self.name!r}: cannot parse {raw!r} as bool")
            try:
                return target(raw)
            except ValueError as error:
                raise ValueError(
                    f"parameter {self.name!r}: cannot parse {raw!r} as {self.type}"
                ) from error
        if target is float and isinstance(raw, int) and not isinstance(raw, bool):
            return float(raw)
        if not isinstance(raw, target) or (target is not bool and isinstance(raw, bool)):
            raise ValueError(
                f"parameter {self.name!r} expects {self.type}, got {type(raw).__name__}"
            )
        return raw

    def validate(self, value: Any) -> Any:
        """Coerce ``value`` and enforce the declared choices."""
        coerced = self.coerce(value)
        if self.choices is not None and coerced not in self.choices:
            raise ValueError(
                f"parameter {self.name!r} must be one of {self.choices}, not {coerced!r}"
            )
        return coerced


def common_params(seed: int) -> tuple[ParamSpec, ...]:
    """The ``scale`` / ``seed`` pair every spec carries."""
    return (
        ParamSpec(
            name="scale",
            type="str",
            default="small",
            description="testbed scale: 'small' runs in seconds, 'paper' mirrors the paper",
            choices=SCALES,
        ),
        ParamSpec(
            name="seed",
            type="int",
            default=seed,
            description="master seed; equal seeds give bit-for-bit identical results",
        ),
    )


@dataclass(frozen=True)
class ExperimentSpec:
    """A named, parameterized, runnable experiment.

    Attributes
    ----------
    name:
        Registry key (``repro run <name>``).
    description:
        One line of what the experiment reproduces.
    category:
        ``"experiment"``, ``"figure"``, ``"ablation"`` or ``"cluster"`` —
        which family of drivers the spec wraps.
    params:
        Declared parameters, always starting with the common
        ``scale``/``seed`` pair.
    implementation:
        Dotted path of the legacy driver the adapter wraps (e.g.
        ``"repro.experiments.exp41.run_experiment_41"``); the registry
        completeness test resolves it.
    runner:
        The adapter executing the experiment; called with every declared
        parameter resolved, returns the raw ``metrics``/``series`` payload.
    """

    name: str
    description: str
    category: str
    params: tuple[ParamSpec, ...]
    implementation: str
    runner: Callable[..., tuple[dict[str, Any], dict[str, list[float]]]] = field(
        compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.category not in ("experiment", "figure", "ablation", "cluster"):
            raise ValueError(f"unknown spec category {self.category!r}")
        names = [param.name for param in self.params]
        if len(names) != len(set(names)):
            raise ValueError(f"spec {self.name!r} declares duplicate parameters")
        if names[:2] != ["scale", "seed"]:
            raise ValueError(f"spec {self.name!r} must lead with scale/seed")

    def param(self, name: str) -> ParamSpec:
        for param in self.params:
            if param.name == name:
                return param
        raise KeyError(f"spec {self.name!r} has no parameter {name!r}")

    def resolve(self, overrides: dict[str, Any]) -> dict[str, Any]:
        """Merge ``overrides`` over the declared defaults and validate.

        Unknown parameter names are an error — the registry is the schema.
        """
        known = {param.name for param in self.params}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(
                f"unknown parameter(s) for {self.name!r}: {sorted(unknown)}; "
                f"declared: {sorted(known)}"
            )
        resolved: dict[str, Any] = {}
        for param in self.params:
            value = overrides.get(param.name, param.default)
            resolved[param.name] = param.validate(value)
        return resolved

    def describe(self) -> str:
        """Multi-line human-readable rendering (``repro describe``)."""
        lines = [f"{self.name} [{self.category}] — {self.description}"]
        lines.append(f"  wraps: {self.implementation}")
        lines.append("  parameters:")
        for param in self.params:
            choice_note = f" (one of {', '.join(map(str, param.choices))})" if param.choices else ""
            lines.append(
                f"    --{param.name} <{param.type}> default={param.default!r}{choice_note}"
            )
            lines.append(f"        {param.description}")
        return "\n".join(lines)
