"""The uniform, serializable result envelope of every experiment run.

Every registered experiment — Section 4 drivers, figures, ablations and the
cluster comparison — returns the same :class:`RunResult` shape from
:func:`repro.api.run`:

``name`` / ``description`` / ``category``
    Echo of the :class:`~repro.api.spec.ExperimentSpec` that produced it.
``params``
    The fully resolved parameters of the run (defaults merged with
    overrides), so the result file alone is enough to reproduce the run.
``metrics``
    Flat mapping of scalar findings (floats, ints, bools, strings).
``series``
    Mapping of named per-sample data series (lists of floats) — the curves
    behind the paper's figures.
``version`` / ``schema_version`` / ``engine`` / ``seed`` / ``scale``
    Provenance: the package version that produced the result, the envelope
    schema revision, and the common run parameters pulled out for
    convenience.  ``engine`` is the ``cluster`` spec's fleet tier, and
    ``"event"`` for every other spec: their runs have no other engine.
``wall_clock_seconds``
    How long the run took.  Excluded from equality comparison and, by
    default, from serialization, so that two runs with the same seed emit
    **byte-identical** JSON.

Serialization is lossless: ``RunResult.from_json(result.to_json()) ==
result`` for every registered experiment (asserted by the test suite).  The
JSON text itself is canonical — sorted keys, fixed separators, no NaN/Inf —
so equal results serialize to equal bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.telemetry.sinks import canonical_json

__all__ = ["RunResult", "SCHEMA_VERSION", "content_key"]

#: Revision of the serialized envelope layout.
SCHEMA_VERSION = 1

#: Scalar types a metric may hold (bool before int: bool is an int subclass).
_SCALAR_TYPES = (bool, int, float, str, type(None))


def content_key(name: str, params: Mapping[str, Any], version: str) -> str:
    """Content address of a run: ``(name, resolved params, version)`` hashed.

    The identity is serialized with the same canonical JSON discipline the
    envelope itself uses (sorted keys, tight separators, no NaN/Inf), so two
    runs that would emit byte-identical envelopes share one key — and any
    change to a parameter or to the package version yields a fresh key,
    which is exactly the invalidation rule the result store needs.
    """
    identity = canonical_json({"name": name, "params": dict(params), "version": version})
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


def _canon_scalar(key: str, value: Any) -> Any:
    """Canonicalize one metric value to a plain JSON scalar."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):  # covers numpy integer via __index__ below
        return int(value)
    if isinstance(value, float):
        result = float(value)
        if not math.isfinite(result):
            raise ValueError(f"metric {key!r} is not finite: {result!r}")
        return result
    if hasattr(value, "__index__"):
        return int(value.__index__())
    if hasattr(value, "__float__"):
        result = float(value)
        if not math.isfinite(result):
            raise ValueError(f"metric {key!r} is not finite: {result!r}")
        return result
    raise TypeError(f"metric {key!r} has unsupported type {type(value).__name__}")


def _reject_non_finite(token: str) -> float:
    raise ValueError(f"non-finite JSON token {token!r} is not a valid RunResult payload")


def _canon_series(key: str, values: Sequence[Any]) -> list[float]:
    """Canonicalize one data series to a plain list of finite floats."""
    out: list[float] = []
    for index, value in enumerate(values):
        number = float(value)
        if not math.isfinite(number):
            raise ValueError(f"series {key!r}[{index}] is not finite: {number!r}")
        out.append(number)
    return out


@dataclass
class RunResult:
    """Uniform envelope produced by :func:`repro.api.run`."""

    name: str
    description: str
    category: str
    params: dict[str, Any]
    metrics: dict[str, Any]
    series: dict[str, list[float]]
    seed: int
    scale: str
    engine: str
    version: str
    schema_version: int = SCHEMA_VERSION
    wall_clock_seconds: float = field(default=0.0, compare=False)
    #: Execution provenance, annotated in memory by the sweep orchestrator
    #: and the result store.  Like the wall clock these never enter the
    #: serialized envelope and are excluded from equality: *how* a result
    #: was obtained (fresh run in worker 12345 versus a cache hit) must not
    #: distinguish two otherwise identical results.
    cache_hit: bool = field(default=False, compare=False)
    worker_pid: int | None = field(default=None, compare=False)
    #: sha256 of the canonical sim-channel telemetry trace, stamped by
    #: :func:`repro.api.run` when a telemetry hub is attached.  Execution
    #: provenance like the two above: it stays out of the serialized
    #: envelope (the digest lives in the trace sidecar's own digest line)
    #: and out of equality, so traced and untraced runs emit identical
    #: envelope bytes.
    telemetry_digest: str | None = field(default=None, compare=False)

    @classmethod
    def build(
        cls,
        *,
        name: str,
        description: str,
        category: str,
        params: Mapping[str, Any],
        metrics: Mapping[str, Any],
        series: Mapping[str, Sequence[Any]],
        version: str,
        wall_clock_seconds: float = 0.0,
    ) -> "RunResult":
        """Construct an envelope, canonicalizing every payload value.

        Adapters hand in whatever the legacy drivers produced (numpy arrays,
        numpy scalars, tuples); everything is normalized here so that
        equality and serialization see one canonical representation.
        """
        clean_params = {key: _canon_scalar(key, value) for key, value in params.items()}
        clean_metrics = {key: _canon_scalar(key, value) for key, value in metrics.items()}
        clean_series = {key: _canon_series(key, values) for key, values in series.items()}
        return cls(
            name=name,
            description=description,
            category=category,
            params=clean_params,
            metrics=clean_metrics,
            series=clean_series,
            seed=int(clean_params.get("seed", 0)),
            scale=str(clean_params.get("scale", "")),
            engine=str(clean_params.get("engine", "event")),
            version=version,
            wall_clock_seconds=float(wall_clock_seconds),
        )

    def to_dict(self, include_timing: bool = False) -> dict[str, Any]:
        """The envelope as a plain dictionary (the JSON object layout)."""
        payload: dict[str, Any] = {
            "schema_version": self.schema_version,
            "name": self.name,
            "description": self.description,
            "category": self.category,
            "version": self.version,
            "seed": self.seed,
            "scale": self.scale,
            "engine": self.engine,
            "params": dict(self.params),
            "metrics": dict(self.metrics),
            "series": {key: list(values) for key, values in self.series.items()},
        }
        if include_timing:
            payload["wall_clock_seconds"] = self.wall_clock_seconds
        return payload

    def to_json(self, include_timing: bool = False, indent: int | None = 2) -> str:
        """Canonical JSON text of the envelope.

        Keys are sorted and NaN/Inf rejected, so equal results produce equal
        bytes.  Timing is excluded by default precisely so that repeated
        same-seed runs are byte-identical; pass ``include_timing=True`` to
        embed the wall clock (it is ignored by equality either way).
        """
        return json.dumps(
            self.to_dict(include_timing=include_timing),
            sort_keys=True,
            indent=indent,
            allow_nan=False,
        )

    def content_key(self) -> str:
        """The run's content address (see the module-level :func:`content_key`)."""
        return content_key(self.name, self.params, self.version)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RunResult":
        """Rebuild an envelope from :meth:`to_dict` output."""
        schema_version = int(payload.get("schema_version", 0))
        if schema_version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported RunResult schema_version {schema_version} "
                f"(this build reads {SCHEMA_VERSION})"
            )
        metrics = dict(payload["metrics"])
        for key, value in metrics.items():
            if not isinstance(value, _SCALAR_TYPES):
                raise ValueError(f"metric {key!r} is not a scalar: {type(value).__name__}")
        return cls(
            name=str(payload["name"]),
            description=str(payload["description"]),
            category=str(payload["category"]),
            params=dict(payload["params"]),
            metrics=metrics,
            series={key: [float(v) for v in values] for key, values in payload["series"].items()},
            seed=int(payload["seed"]),
            scale=str(payload["scale"]),
            engine=str(payload["engine"]),
            version=str(payload["version"]),
            schema_version=schema_version,
            wall_clock_seconds=float(payload.get("wall_clock_seconds", 0.0)),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        """Inverse of :meth:`to_json` (lossless up to wall-clock timing).

        Non-finite tokens (``NaN``, ``Infinity``) are rejected at the
        boundary: :meth:`to_json` can never emit them, so a payload holding
        one is corrupt and would otherwise fail far from the load site.
        """
        return cls.from_dict(json.loads(text, parse_constant=_reject_non_finite))

    def summary(self) -> str:
        """One-paragraph human-readable digest (what the CLI prints)."""
        lines = [
            f"{self.name} [{self.category}] — {self.description}",
            f"  params : "
            + ", ".join(f"{key}={value!r}" for key, value in sorted(self.params.items())),
            f"  repro  : v{self.version}, schema {self.schema_version}, "
            f"{self.wall_clock_seconds:.2f}s wall clock",
        ]
        shown = 0
        for key in sorted(self.metrics):
            if shown >= 8:
                lines.append(f"  …and {len(self.metrics) - shown} more metrics")
                break
            value = self.metrics[key]
            rendered = f"{value:.3f}" if isinstance(value, float) else repr(value)
            lines.append(f"  metric : {key} = {rendered}")
            shown += 1
        for key in sorted(self.series):
            lines.append(f"  series : {key} ({len(self.series[key])} samples)")
        return "\n".join(lines)
