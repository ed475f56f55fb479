"""Parity battery: fan-out and fleet must never change the verdicts.

The concurrent probe scheduler and the sharded fleet are performance
structures only.  For any seeded workload -- clean or faulted -- the
verdict stream (canonical JSONL rows, so every field including the
correlation id participates) must be byte-identical across:

* the serial single monitor (the reference),
* a single monitor with concurrent probe fan-out,
* a sharded fleet of serial monitors,
* a sharded fleet with fan-out inside every shard.

Faulted legs reuse the chaos programs: fail-once (fully recoverable --
the stream must also equal the clean one), the keyed flaky program
(order-independent by construction; some verdicts legitimately go
indeterminate but all four legs must agree), and a dead substrate
(everything degrades to indeterminate, no exceptions).

Fan-out is adaptive: a phase overlaps only once recent probes were
slow, so the fan-out legs run behind a 2 ms substrate and must show
pool dispatches -- parity with a pool that never ran proves nothing.
The reference legs stay at zero latency.
"""

import json

from repro.validation import (
    flaky_program,
    recoverable_program,
    run_fleet_leg,
    run_leg,
    unrecoverable_program,
)

COUNT = 24
SEED = 7
SHARDS = 3
FANOUT = 4
#: Real seconds each substrate request sleeps on the fan-out legs.
LATENCY = 0.002
FANOUT_LEGS = ("fanout", "fleet+fanout")


def legs(fault_factory=None):
    """The four execution shapes over one identical seeded workload."""
    return {
        "serial": run_leg(COUNT, SEED, fault_factory),
        "fanout": run_leg(COUNT, SEED, fault_factory, fanout=FANOUT,
                          latency=LATENCY),
        "fleet": run_fleet_leg(COUNT, SEED, fault_factory, shards=SHARDS),
        "fleet+fanout": run_fleet_leg(COUNT, SEED, fault_factory,
                                      shards=SHARDS, fanout=FANOUT,
                                      latency=LATENCY),
    }


def assert_all_identical(runs):
    reference = runs["serial"]
    assert reference.rows, "the workload must produce verdicts"
    for name, leg in runs.items():
        assert leg.rows == reference.rows, (
            f"{name} diverged from the serial verdict stream")
        assert leg.digest() == reference.digest()
        assert leg.probe_count == reference.probe_count
    return reference


def assert_pool_engaged(runs):
    for name in FANOUT_LEGS:
        assert runs[name].dispatched > 0, (
            f"{name} never reached the pool: its parity is vacuous")


class TestCleanParity:
    def test_all_shapes_produce_identical_verdict_streams(self):
        runs = legs()
        reference = assert_all_identical(runs)
        assert_pool_engaged(runs)
        assert len(reference.rows) == COUNT

    def test_fanout_actually_engaged(self):
        # Guard against vacuous parity: the concurrent leg must really
        # have sent probes from pool threads, and the same probes.
        serial = run_leg(COUNT, SEED)
        fanout = run_leg(COUNT, SEED, fanout=FANOUT, latency=LATENCY)
        assert fanout.dispatched > 0
        assert serial.dispatched == 0
        assert fanout.probe_count == serial.probe_count
        assert fanout.rows == serial.rows


class TestFaultedParity:
    def test_fail_once_faults_are_invisible_everywhere(self):
        clean = run_leg(COUNT, SEED)
        runs = legs(recoverable_program)
        reference = assert_all_identical(runs)
        assert_pool_engaged(runs)
        # Fully recoverable: the faulted stream equals the clean stream,
        # and retries were genuinely absorbed (not just never needed).
        assert reference.rows == clean.rows
        assert runs["serial"].retries > 0
        assert runs["fleet+fanout"].retries > 0

    def test_keyed_flaky_faults_keep_all_shapes_in_agreement(self):
        runs = legs(flaky_program)
        reference = assert_all_identical(runs)
        assert_pool_engaged(runs)
        # The flaky program exhausts some retries: the stream is allowed
        # to contain indeterminates, but every shape sees the same ones.
        verdicts = [json.loads(row)["verdict"] for row in reference.rows]
        assert len(verdicts) == COUNT

    def test_dead_substrate_degrades_every_shape_to_indeterminate(self):
        # No dispatch requirement: the breakers open after 5 failures and
        # then fail fast, so no probe window fills with slow sends.
        for name, leg in legs(unrecoverable_program).items():
            verdicts = {json.loads(row)["verdict"] for row in leg.rows}
            assert verdicts == {"indeterminate"}, (
                f"{name} produced non-indeterminate verdicts under a "
                f"dead substrate: {sorted(verdicts)}")


class TestParityDiagnostics:
    def test_verdict_rows_carry_contiguous_trace_ids(self):
        # The fleet shares one trace-id allocator across shards; the
        # merged stream must keep the single gap-free t-NNNNNN sequence
        # a serial monitor would have minted.
        leg = run_fleet_leg(COUNT, SEED, shards=SHARDS)
        trace_ids = [json.loads(row)["correlation_id"]
                     for row in leg.rows]
        expected = [f"t-{n:06d}" for n in range(1, COUNT + 1)]
        assert trace_ids == expected

    def test_digest_is_deterministic_across_runs(self):
        assert run_leg(COUNT, SEED).digest() == \
            run_leg(COUNT, SEED).digest()
