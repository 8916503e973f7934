"""The live-mutation command vocabulary of the fleet service.

A mutation is a small, validated command the service applies to its engine
at a tick boundary: resize the emulated-browser population (load spike or
trough), kill a node, change a node's leak rates, or trigger an operator
rejuvenation.  Each applied command is stamped with the boundary tick and a
per-session sequence number and appended to the session's command log --
the unit of replay.

The same vocabulary covers both engine tiers because they share one
``mutate_*`` front end: ``repro.cluster.engine.FleetEngine`` checks every
command once (finished engine, node range, node state, leak rates) and hands
it to a small per-tier apply hook, so ``ClusterEngine``,
``FluidClusterEngine`` and the test suite's per-second reference loop apply
it with boundary-identical semantics and refuse it with the same messages.
:func:`apply_mutation` is nothing but a validated dispatch onto that front
end.  Parsing keeps its own checks, which turn HTTP input into
:class:`MutationError` before any engine sees it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "MUTATION_KINDS",
    "MutationError",
    "MutationRefused",
    "MutationCommand",
    "parse_mutation",
    "apply_mutation",
]

#: The supported command kinds, in documentation order.
MUTATION_KINDS = ("load", "kill", "rejuvenate", "leak_rate")


class MutationError(ValueError):
    """A mutation request that cannot be parsed or applied (HTTP 400)."""


class MutationRefused(MutationError):
    """A well-formed command the session can no longer take (HTTP 409).

    Raised once the session has reached its horizon or finished: a command
    stamped there could not affect the run, so it is refused, not recorded.
    """


def _require_int(params: Mapping[str, object], key: str, *, minimum: int) -> int:
    value = params.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise MutationError(f"{key!r} must be an integer")
    if value < minimum:
        raise MutationError(f"{key!r} must be at least {minimum}")
    return value


def _optional_int(params: Mapping[str, object], key: str, *, minimum: int) -> int | None:
    if params.get(key) is None:
        return None
    return _require_int(params, key, minimum=minimum)


@dataclass(frozen=True)
class MutationCommand:
    """One applied mutation, tick-stamped into the session's command log.

    ``tick`` is the boundary tick the engine was paused at when the command
    was applied; ``seq`` orders commands applied at the same boundary.
    Replay steps the engine to ``tick`` and re-applies the same ``kind`` and
    ``params`` -- nothing else about the live run's wall-clock interleaving
    is (or needs to be) recorded.
    """

    tick: int
    seq: int
    kind: str
    params: dict

    def to_dict(self) -> dict:
        return {
            "tick": self.tick,
            "seq": self.seq,
            "kind": self.kind,
            "params": {key: self.params[key] for key in sorted(self.params)},
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, object]) -> "MutationCommand":
        try:
            tick = int(record["tick"])  # type: ignore[arg-type]
            seq = int(record["seq"])  # type: ignore[arg-type]
            kind = str(record["kind"])
            params = dict(record["params"])  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as error:
            raise MutationError(f"malformed command record: {record!r}") from error
        kind, params = parse_mutation({"kind": kind, **params})
        return cls(tick=tick, seq=seq, kind=kind, params=params)


def parse_mutation(payload: Mapping[str, object]) -> tuple[str, dict]:
    """Validate a raw mutation request into ``(kind, canonical params)``.

    Accepts the HTTP body shape ``{"kind": ..., <params>}`` and raises
    :class:`MutationError` on anything malformed, so the server can turn the
    message into a 400 and the replayer can reject a corrupt command log.
    """
    kind = payload.get("kind")
    if kind not in MUTATION_KINDS:
        raise MutationError(f"'kind' must be one of {MUTATION_KINDS}, not {kind!r}")
    if kind == "load":
        return kind, {"total_ebs": _require_int(payload, "total_ebs", minimum=1)}
    if kind == "kill":
        params: dict = {"node": _require_int(payload, "node", minimum=0)}
        reason = payload.get("reason")
        if reason is not None:
            if not isinstance(reason, str):
                raise MutationError("'reason' must be a string")
            params["reason"] = reason
        return kind, params
    if kind == "rejuvenate":
        return kind, {"node": _require_int(payload, "node", minimum=0)}
    # leak_rate: at least one rate field; node is optional (None = fleet-wide).
    params = {}
    node = _optional_int(payload, "node", minimum=0)
    if node is not None:
        params["node"] = node
    for key, minimum in (("memory_n", 0), ("thread_m", 0), ("thread_t", 1)):
        value = _optional_int(payload, key, minimum=minimum)
        if value is not None:
            params[key] = value
    if not any(key in params for key in ("memory_n", "thread_m", "thread_t")):
        raise MutationError(
            "a leak_rate mutation needs at least one of memory_n/thread_m/thread_t"
        )
    return kind, params


def apply_mutation(engine, kind: str, params: Mapping[str, object]) -> None:
    """Dispatch one parsed mutation onto an engine's ``mutate_*`` surface.

    Engine-side validation errors (dead node, finished engine, ...) surface
    as :class:`MutationError` so callers treat "bad command" uniformly.
    """
    try:
        if kind == "load":
            engine.mutate_load(params["total_ebs"])
        elif kind == "kill":
            if "reason" in params:
                engine.mutate_kill(params["node"], reason=params["reason"])
            else:
                engine.mutate_kill(params["node"])
        elif kind == "rejuvenate":
            engine.mutate_rejuvenate(params["node"])
        elif kind == "leak_rate":
            engine.mutate_leak_rates(
                node_id=params.get("node"),
                memory_n=params.get("memory_n"),
                thread_m=params.get("thread_m"),
                thread_t=params.get("thread_t"),
            )
        else:  # pragma: no cover - parse_mutation gates the kinds
            raise MutationError(f"unknown mutation kind {kind!r}")
    except MutationError:
        raise
    except (ValueError, RuntimeError) as error:
        raise MutationError(str(error)) from error
