"""Demand-driven probe planning for the cloud monitor.

Binding the OCL roots is the expensive part of one monitored request: the
unplanned provider issues the full round of GET probes (Keystone project,
volume list, quota set, volume item, token introspection) before *each* of
the two evaluation phases, even when the method's contract only reads one
or two roots.  A :class:`ProbePlan` is the static answer to "which probes
does this contract actually need":

* the **pre phase** must bind every root the pre-condition reads *plus*
  every root the snapshot will capture old values from -- the monitor
  reuses the pre-probe context for the snapshot, so both sets ride on one
  probe round;
* the **post phase** must bind only the roots the post-condition reads
  outside ``pre()`` nodes, because the snapshot answers every old-value
  lookup.

Plans are computed once per contract (the AST never changes at runtime)
and consumed by ``CloudStateProvider.bindings(..., roots=...)``, which
skips the probes for every root not in the requested set and counts them
in the ``monitor_probes_skipped_total`` metric.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from ..ocl.usage import old_value_roots, post_state_roots, required_roots

#: The OCL roots the Cinder-scenario provider knows how to bind.
PROBE_ROOTS: Tuple[str, ...] = ("project", "volume", "quota_sets", "user")

#: GET requests each Cinder-scenario root costs to bind: ``project`` is
#: the Keystone project probe plus the volume listing, ``volume`` the
#: item probe plus its snapshot listing.  This table is the single source
#: for both the planner's cost estimates and the provider's
#: skipped-probe accounting -- if a per-root probe gains or loses a
#: request, change it HERE and the ``monitor_probes_skipped_total``
#: bookkeeping follows (a test pins these totals to real ``probe_count``
#: deltas, so drift fails loudly).
PROBE_COSTS: Dict[str, int] = {
    "project": 2,
    "volume": 2,
    "quota_sets": 1,
    "user": 1,
}


class ProbePlan:
    """Which root bindings each Figure-2 phase of one contract needs."""

    def __init__(self, pre_roots: Iterable[str],
                 snapshot_roots: Iterable[str],
                 post_roots: Iterable[str]):
        #: Roots the pre-condition may read.
        self.pre_roots: FrozenSet[str] = frozenset(pre_roots)
        #: Roots read under ``pre()`` in the post-condition (snapshotted).
        self.snapshot_roots: FrozenSet[str] = frozenset(snapshot_roots)
        #: Roots the post-condition reads against the post-state.
        self.post_roots: FrozenSet[str] = frozenset(post_roots)

    @classmethod
    def for_contract(cls, contract,
                     roots: Optional[Iterable[str]] = None) -> "ProbePlan":
        """Analyse *contract*'s pre- and post-condition ASTs.

        *roots* defaults to :data:`PROBE_ROOTS`; pass the root names of a
        differently-shaped provider to plan for other scenarios.
        """
        known = tuple(roots) if roots is not None else PROBE_ROOTS
        return cls(
            pre_roots=required_roots(contract.precondition, known),
            snapshot_roots=old_value_roots(contract.postcondition, known),
            post_roots=post_state_roots(contract.postcondition, known),
        )

    @property
    def pre_phase_roots(self) -> FrozenSet[str]:
        """Bindings the pre-probe round must provide (pre + snapshot)."""
        return self.pre_roots | self.snapshot_roots

    @property
    def post_phase_roots(self) -> FrozenSet[str]:
        """Bindings the post-probe round must provide."""
        return self.post_roots

    def probe_cost(self, costs: Optional[Mapping[str, int]] = None) -> int:
        """Planned GET probes for one monitored request under this plan.

        *costs* defaults to the Cinder :data:`PROBE_COSTS`; pass the
        provider's own ``probe_costs`` table for other scenarios.  Roots
        missing from the table count one probe each.
        """
        table = costs if costs is not None else PROBE_COSTS
        return (sum(table.get(root, 1) for root in self.pre_phase_roots) +
                sum(table.get(root, 1) for root in self.post_phase_roots))

    def describe(self) -> str:
        """Compact ``pre:...|post:...`` form for trace tags and logs."""
        return ("pre:" + ",".join(sorted(self.pre_phase_roots)) +
                "|post:" + ",".join(sorted(self.post_phase_roots)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbePlan):
            return NotImplemented
        return (self.pre_roots == other.pre_roots and
                self.snapshot_roots == other.snapshot_roots and
                self.post_roots == other.post_roots)

    def __repr__(self) -> str:
        return f"<ProbePlan {self.describe()}>"
