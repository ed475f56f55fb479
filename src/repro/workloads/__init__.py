"""Workload generation for the benchmark harness.

* :mod:`repro.workloads.generator` -- seeded random request mixes driven
  either directly at the cloud or through the monitor (the OVERHEAD
  experiment's traffic),
* :mod:`repro.workloads.scaling` -- synthetic model families of growing
  size (the SCALE experiment: contract generation and codegen cost as the
  models grow),
* :mod:`repro.workloads.trace` -- persistable request scripts, optionally
  paced by arrival times.
"""

from .generator import (
    RequestMix,
    WorkloadRunner,
    make_workload,
    status_histogram,
)
from .scaling import synthetic_models
from .trace import (
    RecordingClient,
    Trace,
    TraceEntry,
    bursty_arrivals,
    poisson_arrivals,
    uniform_arrivals,
)

__all__ = [
    "RecordingClient",
    "RequestMix",
    "Trace",
    "TraceEntry",
    "WorkloadRunner",
    "bursty_arrivals",
    "make_workload",
    "poisson_arrivals",
    "status_histogram",
    "synthetic_models",
    "uniform_arrivals",
]
