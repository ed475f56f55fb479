"""ABLATIONS: design choices called out in DESIGN.md, quantified.

Two levers the reproduction adds around the paper's design:

* **cross-request probe caching** -- between forwarded mutations the
  probed state cannot change, so bindings (the token's identity
  included) can be served from a cache the monitor invalidates after
  every mutation; this bench quantifies the probe savings while
  asserting verdicts stay identical.
* **model slicing** (the paper's future-work item) -- generating the
  monitor from a slice of the models must cost less while preserving the
  contracts of the sliced scenario.
"""

from repro.core import CloudMonitor, ContractGenerator, MonitorOptions
from repro.core import cinder_behavior_model, cinder_resource_model
from repro.cloud import PrivateCloud
from repro.uml import slice_models
from repro.validation import TestOracle
from repro.workloads import synthetic_models


def _monitored_session(probe_cache):
    cloud = PrivateCloud.paper_setup()
    monitor = CloudMonitor.for_service(
        "cinder", cloud.network, "myProject",
        options=MonitorOptions(enforcing=False, probe_cache=probe_cache))
    cloud.network.register("cmonitor", monitor.app)
    oracle = TestOracle(cloud, monitor)
    oracle.run()
    return monitor


def test_bench_ablation_probe_cache_off(benchmark):
    monitor = benchmark(_monitored_session, False)
    assert monitor.violations() == []


def test_bench_ablation_probe_cache_on(benchmark):
    monitor = benchmark(_monitored_session, True)
    assert monitor.violations() == []


def test_bench_ablation_probe_cache_probe_savings(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    uncached = _monitored_session(False)
    cached = _monitored_session(True)
    # Same verdicts, fewer probes.
    assert [v.verdict for v in cached.log] == \
        [v.verdict for v in uncached.log]
    saved = uncached.provider.probe_count - cached.provider.probe_count
    assert saved > 0
    print(f"\n[ABLATION] probe cache saves {saved} of "
          f"{uncached.provider.probe_count} probe GETs over the battery "
          f"({saved / uncached.provider.probe_count:.0%})")


def test_bench_ablation_slicing_contract_generation(benchmark):
    """Contract generation on a 1-of-8 slice vs. the full model."""
    full_diagram, full_machine = synthetic_models(8)
    sliced_diagram, sliced_machine = slice_models(
        full_diagram, full_machine, ["c3_item"])

    contracts = benchmark(
        lambda: ContractGenerator(sliced_machine,
                                  sliced_diagram).all_contracts())

    assert len(contracts) == 5
    full_count = len(ContractGenerator(full_machine,
                                       full_diagram).all_contracts())
    print(f"\n[ABLATION] slice generates {len(contracts)} contracts vs "
          f"{full_count} for the full model; sliced contracts are "
          f"byte-identical to their full-model counterparts (asserted in "
          f"tests/uml/test_slicing.py)")


def _delete_contract_and_state():
    from repro.ocl import Context

    generator = ContractGenerator(cinder_behavior_model(),
                                  cinder_resource_model())
    contract = generator.for_trigger("DELETE(volume)")
    context = Context({
        "project": {"id": "p", "volumes": [{"id": "v1"}, {"id": "v2"}]},
        "quota_sets": {"volumes": 5},
        "volume": {"id": "v1", "status": "available"},
        "user": {"roles": ["admin"]},
    }, strict=False)
    return contract, context


def test_bench_ablation_contracts_interpreter_oracle(benchmark):
    """Contract evaluation cost: the tree-walking interpreter (oracle)."""
    from repro.ocl import Evaluator

    contract, context = _delete_contract_and_state()
    result = benchmark(
        lambda: Evaluator(context).evaluate_bool(contract.precondition))
    assert result is True


def test_bench_ablation_contracts_shipped(benchmark):
    """Contract evaluation cost: the shipped contract, compiled at
    generation (same contract and state as the oracle bench)."""
    contract, context = _delete_contract_and_state()
    result = benchmark(contract.check_pre, context)
    assert result is True


def test_bench_ablation_compiled_monitor_equivalent(benchmark):
    """The shipped monitor gives the reference session's verdicts."""

    def run_monitor():
        cloud = PrivateCloud.paper_setup()
        monitor = CloudMonitor.for_service("cinder", cloud.network,
                                           "myProject", enforcing=False)
        cloud.network.register("cmonitor", monitor.app)
        TestOracle(cloud, monitor).run()
        return monitor

    monitor = benchmark(run_monitor)
    reference = _monitored_session(False)
    assert [v.verdict for v in monitor.log] == \
        [v.verdict for v in reference.log]


def test_bench_ablation_sliced_monitor_equivalent(benchmark):
    """A monitor generated from the volume slice behaves identically."""
    diagram, machine = slice_models(
        cinder_resource_model(), cinder_behavior_model(), ["volume"])

    def run_sliced():
        cloud = PrivateCloud.paper_setup()
        monitor = CloudMonitor.for_service(
            "cinder", cloud.network, "myProject", machine=machine,
            diagram=diagram, enforcing=False)
        cloud.network.register("cmonitor", monitor.app)
        TestOracle(cloud, monitor).run()
        return monitor

    monitor = benchmark(run_sliced)
    assert monitor.violations() == []
    reference = _monitored_session(False)
    assert [v.verdict for v in monitor.log] == \
        [v.verdict for v in reference.log]
