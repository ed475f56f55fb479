"""Workload generation for the benchmark harness.

* :mod:`repro.workloads.generator` -- seeded random request mixes driven
  either directly at the cloud or through the monitor (the OVERHEAD
  experiment's traffic),
* :mod:`repro.workloads.scaling` -- synthetic model families of growing
  size (the SCALE experiment: contract generation and codegen cost as the
  models grow) plus the fleet throughput ladder and its persisted
  ``BENCH_scaling.json`` trajectory.
"""

from .generator import RequestMix, WorkloadRunner, make_workload
from .scaling import (
    append_trajectory,
    balanced_tenants,
    load_trajectory,
    measure_fleet_throughput,
    measure_overhead_ladder,
    measure_overhead_volume,
    overhead_trace,
    scaling_sweep,
    synthetic_models,
    tenant_header_key,
)
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
    "append_trajectory",
    "balanced_tenants",
    "bursty_arrivals",
    "load_trajectory",
    "make_workload",
    "measure_fleet_throughput",
    "measure_overhead_ladder",
    "measure_overhead_volume",
    "overhead_trace",
    "poisson_arrivals",
    "scaling_sweep",
    "synthetic_models",
    "tenant_header_key",
    "uniform_arrivals",
]
