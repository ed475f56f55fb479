"""Typed construction options for monitors and fleets.

Every tuning knob that shapes a monitor shard lives in one frozen
value instead of travelling as its own keyword through
``CloudMonitor.__init__``, the scenario builders, and
``MonitorFleet.for_service``:

* :class:`ResilienceOptions` -- the full retry + circuit-breaker
  parameter set, able to build a
  :class:`~repro.core.resilience.ResilientTransport` on demand;
* :class:`MonitorOptions` -- everything that shapes one monitor shard
  (mode, planning, fan-out, probe cache, resilience, overload controls,
  sampling).

``CloudMonitor`` and ``MonitorFleet`` take a single ``options=``
object; only ``enforcing=`` and ``probe_planning=`` remain as
constructor keywords (see :func:`resolve_options`).  A
:class:`~repro.config.MonitorConfig` derives its options through
:func:`repro.config.builder.monitor_options`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..errors import MonitorError
from ..obs.sampling import SamplingOptions
from .admission import AdmissionOptions, DeadlineOptions, DegradationOptions
from .resilience import ResilientTransport, RetryPolicy


@dataclass(frozen=True)
class ResilienceOptions:
    """Retry + circuit-breaker parameters as one typed value.

    Field defaults mirror :class:`~repro.core.resilience.RetryPolicy`
    and :class:`~repro.core.resilience.ResilientTransport` exactly, so
    ``ResilienceOptions()`` builds the same transport a bare
    ``ResilientTransport(network)`` would.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0
    failure_threshold: int = 5
    recovery_time: float = 30.0

    def retry_policy(self) -> RetryPolicy:
        """The :class:`RetryPolicy` these options describe."""
        return RetryPolicy(max_attempts=self.max_attempts,
                           base_delay=self.base_delay,
                           multiplier=self.multiplier,
                           max_delay=self.max_delay,
                           jitter=self.jitter,
                           seed=self.seed)

    def build_transport(self, network,
                        observability=None) -> ResilientTransport:
        """A fresh :class:`ResilientTransport` over *network*."""
        return ResilientTransport(network,
                                  policy=self.retry_policy(),
                                  failure_threshold=self.failure_threshold,
                                  recovery_time=self.recovery_time,
                                  observability=observability)


@dataclass(frozen=True)
class MonitorOptions:
    """Everything that shapes one monitor shard, as one value.

    * ``enforcing`` -- block failing pre-conditions (Figure-2 proxy
      mode) instead of audit mode;
    * ``probe_planning`` -- demand-driven probe plans (the default)
      versus the paper's probe-everything rounds;
    * ``fanout`` -- concurrent probe fan-out width, 4 by default: a
      probe phase overlaps only once the last 8 probe sends each took
      at least 1 ms (see :mod:`repro.core.scheduler`); 1 never overlaps;
    * ``probe_cache`` -- cross-request probe cache: ``True`` gives the
      monitor its own :class:`~repro.core.probecache.ProbeCache` (so
      every fleet shard owns one), ``False`` keeps it off;
    * ``resilience`` -- when set, the monitor builds its own
      :class:`~repro.core.resilience.ResilientTransport` from these
      parameters;
    * ``deadline`` / ``admission`` / ``degradation`` -- the overload
      controls from :mod:`repro.core.admission`; all three default to
      ``None`` (off), which keeps the monitored path byte-identical to
      the pre-admission monitor;
    * ``sampling`` -- head/tail trace sampling and obs-overhead
      self-accounting (:class:`~repro.obs.sampling.SamplingOptions`);
      ``None`` (the default) retains every trace and adds zero clock
      reads, keeping the recorded digest gates byte-identical.
    """

    enforcing: bool = True
    probe_planning: bool = True
    fanout: int = 4
    probe_cache: bool = False
    resilience: Optional[ResilienceOptions] = None
    deadline: Optional[DeadlineOptions] = None
    admission: Optional[AdmissionOptions] = None
    degradation: Optional[DegradationOptions] = None
    sampling: Optional[SamplingOptions] = None

    def __post_init__(self) -> None:
        if int(self.fanout) < 1:
            raise MonitorError(
                f"fanout must be >= 1, got {self.fanout}")
        if not isinstance(self.probe_cache, bool):
            raise MonitorError(
                f"probe_cache must be True or False, got "
                f"{self.probe_cache!r}")


def resolve_options(options: Optional[MonitorOptions] = None,
                    enforcing: Optional[bool] = None,
                    probe_planning: Optional[bool] = None,
                    ) -> MonitorOptions:
    """Fold the ``enforcing=`` / ``probe_planning=`` keywords into options.

    *options* provides the base (``MonitorOptions()`` when ``None``);
    either keyword passed as non-``None`` overrides its field.  The two
    stay constructor keywords because they read well at call sites;
    every other knob is set on the :class:`MonitorOptions` itself.
    """
    resolved = options if options is not None else MonitorOptions()
    if enforcing is not None:
        resolved = replace(resolved, enforcing=bool(enforcing))
    if probe_planning is not None:
        resolved = replace(resolved, probe_planning=bool(probe_planning))
    return resolved
