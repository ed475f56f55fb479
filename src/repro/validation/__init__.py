"""The validation campaign of Section VI-D.

The paper validates the monitor by seeding three authorization mutants into
the cloud implementation and checking the monitor detects each one.  This
package automates that experiment:

* :mod:`repro.validation.oracle` -- the automated testing script of
  Section III-B (user 4): a request battery driven through the monitor,
  used as a test oracle,
* :mod:`repro.validation.legs` -- :func:`run_leg`, the one way every
  campaign and gate runs a deployment: build it, seed faults and a
  mutant, drive traffic, close it, and return one :class:`LegRecord`,
* :mod:`repro.validation.campaign` -- applies each mutant to a fresh
  cloud, replays the battery, and assembles the kill matrix.
"""

from .campaign import (
    CampaignResult,
    KillRecord,
    MutationCampaign,
    campaign_config,
    probes_per_request,
    release2_setup,
)
from .chaos import (
    EXPECTED_BREAKER_SEQUENCE,
    assert_breaker_sequence,
    assert_indeterminate_degradation,
    chaos_config,
    flaky_program,
    indeterminate,
    real_latency,
    recoverable_program,
    retries,
    run_breaker_sequence,
    unrecoverable_program,
)
from .legs import HOSTS, LegRecord, first_divergence, run_leg
from .localization import Diagnosis, localize, render_report
from .overload import (
    assert_burst_invariants,
    burst_config,
    burst_leg,
    burst_summary,
    calm_leg,
    generous_config,
    make_burst_trace,
    make_calm_trace,
    overload_config,
    service_time,
    stream_parity,
)
from .reporting import session_report
from .sampling import (
    DISABLED_SAMPLING,
    assert_sampling_invariants,
    overhead_config,
    overhead_leg,
    overhead_rung,
    overhead_trace,
    sampling_config,
)
from .oracle import (
    BatteryStep,
    TestOracle,
    extended_battery,
    release2_battery,
    standard_battery,
)

__all__ = [
    "BatteryStep",
    "CampaignResult",
    "DISABLED_SAMPLING",
    "Diagnosis",
    "HOSTS",
    "KillRecord",
    "LegRecord",
    "MutationCampaign",
    "TestOracle",
    "assert_burst_invariants",
    "assert_indeterminate_degradation",
    "assert_sampling_invariants",
    "burst_config",
    "burst_leg",
    "burst_summary",
    "calm_leg",
    "campaign_config",
    "chaos_config",
    "first_divergence",
    "flaky_program",
    "generous_config",
    "indeterminate",
    "make_burst_trace",
    "make_calm_trace",
    "overhead_config",
    "overhead_leg",
    "overhead_rung",
    "overhead_trace",
    "overload_config",
    "probes_per_request",
    "real_latency",
    "recoverable_program",
    "retries",
    "run_leg",
    "sampling_config",
    "service_time",
    "stream_parity",
    "unrecoverable_program",
    "EXPECTED_BREAKER_SEQUENCE",
    "assert_breaker_sequence",
    "extended_battery",
    "localize",
    "release2_battery",
    "release2_setup",
    "render_report",
    "run_breaker_sequence",
    "session_report",
    "standard_battery",
]
