"""Fleet-as-a-service: a long-lived simulation server over the cluster tiers.

The service owns one cluster engine (the exact ``event`` tier or the
approximate ``fluid`` tier) and keeps it *alive*: a stepper thread advances the fleet in fixed tick
chunks (as fast as possible, or paced against the wall clock) while a
stdlib ``ThreadingHTTPServer`` answers status queries, streams telemetry and
accepts live scenario mutations -- load spikes and troughs, operator node
kills, leak-rate changes and triggered rejuvenations.

Determinism is the whole point.  Mutations are applied only at tick
boundaries, stamped with the boundary tick, and appended to a command log
the :class:`~repro.service.session.SessionRecorder` persists.
Replaying a session directory (``repro serve --replay DIR``) rebuilds the
engine from the manifest, re-applies the command log at the stamped ticks
and reproduces the exact :class:`~repro.cluster.status.ClusterOutcome` and
sim-channel telemetry digest, byte for byte -- however the live run's HTTP
requests happened to interleave with the stepper.

Layout:

- :mod:`repro.service.mutations` -- the mutation command vocabulary
  (parse / validate / apply / serialize).
- :mod:`repro.service.session` -- :class:`SimulationSession` (engine +
  stepper thread + recorder), :class:`SessionRecorder` and
  :func:`replay_session`.
- :mod:`repro.service.server` -- the HTTP surface (``/fleet``,
  ``/nodes/<id>``, ``/forecasts``, ``/schedule``, ``/availability``,
  ``/telemetry/stream`` SSE, ``POST /mutations``, ``POST /shutdown``).
- :mod:`repro.service.dashboard` -- the single-file HTML/JS dashboard the
  server serves at ``/``.
- :mod:`repro.service.cli` -- the ``repro serve`` entry point.
"""

from repro.service.mutations import (
    MUTATION_KINDS,
    MutationCommand,
    MutationError,
    MutationRefused,
    apply_mutation,
    parse_mutation,
)
from repro.service.session import (
    SessionRecorder,
    SimulationSession,
    build_service_engine,
    replay_session,
)

__all__ = [
    "MUTATION_KINDS",
    "MutationCommand",
    "MutationError",
    "MutationRefused",
    "apply_mutation",
    "parse_mutation",
    "SessionRecorder",
    "SimulationSession",
    "build_service_engine",
    "replay_session",
]
