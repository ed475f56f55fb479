"""The validation campaign of Section VI-D.

The paper validates the monitor by seeding three authorization mutants into
the cloud implementation and checking the monitor detects each one.  This
package automates that experiment:

* :mod:`repro.validation.oracle` -- the automated testing script of
  Section III-B (user 4): a request battery driven through the monitor,
  used as a test oracle,
* :mod:`repro.validation.campaign` -- applies each mutant to a fresh
  cloud, replays the battery, and assembles the kill matrix.
"""

from .campaign import (
    CampaignResult,
    KillRecord,
    MutationCampaign,
    campaign_config,
    measure_probe_rate,
    release2_setup,
)
from .chaos import (
    EXPECTED_BREAKER_SEQUENCE,
    ChaosReport,
    ChaosRun,
    assert_breaker_sequence,
    assert_indeterminate_degradation,
    chaos_config,
    flaky_program,
    recoverable_program,
    run_breaker_sequence,
    run_cache_parity_campaign,
    run_chaos_campaign,
    run_fleet_leg,
    run_leg,
    unrecoverable_program,
)
from .localization import Diagnosis, localize, render_report
from .overload import (
    OverloadBurstReport,
    OverloadParityReport,
    OverloadRun,
    assert_burst_invariants,
    burst_config,
    generous_config,
    make_burst_trace,
    make_calm_trace,
    overload_config,
    run_burst_campaign,
    run_overload_leg,
    run_parity_campaign,
)
from .reporting import session_report
from .sampling import (
    assert_sampling_invariants,
    run_sampling_ladder,
    run_sampling_parity_campaign,
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
    "ChaosReport",
    "ChaosRun",
    "Diagnosis",
    "KillRecord",
    "MutationCampaign",
    "OverloadBurstReport",
    "OverloadParityReport",
    "OverloadRun",
    "TestOracle",
    "assert_burst_invariants",
    "assert_indeterminate_degradation",
    "assert_sampling_invariants",
    "burst_config",
    "campaign_config",
    "chaos_config",
    "flaky_program",
    "generous_config",
    "make_burst_trace",
    "make_calm_trace",
    "measure_probe_rate",
    "overload_config",
    "recoverable_program",
    "run_burst_campaign",
    "run_cache_parity_campaign",
    "run_chaos_campaign",
    "run_fleet_leg",
    "run_leg",
    "run_overload_leg",
    "run_parity_campaign",
    "run_sampling_ladder",
    "run_sampling_parity_campaign",
    "sampling_config",
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
