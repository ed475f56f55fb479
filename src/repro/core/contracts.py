"""Contract generation from behavioral models (paper Section V).

For a method *m* triggering transitions ``t1..tn``:

* the pre-condition of each case is ``inv(source(ti)) and guard(ti)``;
* ``Pre(m)`` is the disjunction of the case pre-conditions ("we need to
  combine the information stated in all the transitions triggered by a
  method");
* ``Post(m)`` is the conjunction of implications
  ``pre(case_pre_i) implies inv(target(ti)) and effect(ti)`` -- each
  antecedent is evaluated in the state *before* the method executed, which
  is why it is wrapped in a ``pre()`` old-value node (the paper's Listing 2
  stores the antecedent variables in ``pre_*`` locals).

The generated :class:`MethodContract` renders to the Listing-1 text format,
knows which state must be snapshotted before forwarding a request, and is
compiled once, when it is generated -- the paper's generator likewise
turns each contract into checking code once (Section VI).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import GenerationError
from ..ocl import Context, Snapshot, compile_contract, parse, to_text
from ..ocl.nodes import Binary, Expression, Pre, conjoin, disjoin
from ..ocl.simplify import simplify as simplify_ocl
from ..uml import ClassDiagram, StateMachine, Transition, Trigger


class ContractCase:
    """One transition's contribution to a method contract.

    With ``simplify=True`` the combined expressions are normalized (unit
    ``true`` terms dropped, duplicates collapsed) -- the readable form the
    paper's Listing 1 presents; the default keeps the mechanical
    conjunction for full traceability to the model elements.  *parser*
    turns the model's OCL texts into ASTs; :class:`ContractGenerator`
    passes one that parses each distinct text once.
    """

    def __init__(self, transition: Transition, machine: StateMachine,
                 simplify: bool = False,
                 parser: Callable[[str], Expression] = parse):
        self.transition = transition
        self.source_state = machine.get_state(transition.source)
        self.target_state = machine.get_state(transition.target)
        #: inv(source) and guard  -- this case applies when it holds.
        self.precondition: Expression = Binary(
            "and",
            parser(self.source_state.invariant),
            parser(transition.guard),
        )
        #: inv(target) and effect -- must hold afterwards if the case applied.
        self.postcondition: Expression = Binary(
            "and",
            parser(self.target_state.invariant),
            parser(transition.effect),
        )
        if simplify:
            self.precondition = simplify_ocl(self.precondition)
            self.postcondition = simplify_ocl(self.postcondition)
        #: pre(case_pre) implies post -- the Listing 1 implication.
        self.implication: Expression = Binary(
            "implies", Pre(self.precondition), self.postcondition)
        self.security_requirements: Tuple[str, ...] = (
            transition.security_requirements)

    def __repr__(self) -> str:
        return (f"<ContractCase {self.transition.source} -> "
                f"{self.transition.target}>")


class MethodContract:
    """The combined pre/post-condition of one method on one resource.

    The contract compiles itself when it is built (see
    :func:`repro.ocl.compile.compile_contract`): one closure per case
    pre-condition, one for the post-condition, and one snapshot plan.
    The ASTs stay as the source of truth for rendering, probe planning
    and the interpreter oracle.
    """

    def __init__(self, trigger: Trigger, cases: List[ContractCase],
                 uri: Optional[str] = None):
        if not cases:
            raise GenerationError(
                f"no transitions are triggered by {trigger}; "
                f"cannot generate a contract")
        self.trigger = trigger
        self.cases = cases
        self.uri = uri or f"/{trigger.resource}"
        self.precondition: Expression = disjoin(
            [case.precondition for case in cases])
        self.postcondition: Expression = conjoin(
            [case.implication for case in cases])
        checks, self._post_check, self._snapshot_plan = compile_contract(
            [case.precondition for case in cases], self.postcondition)
        self._case_checks = tuple(zip(cases, checks))
        self._obs = None
        self._probe_plans: Dict[Optional[Tuple[str, ...]], Any] = {}
        #: Guards the probe-plan memo: fleet shards share contract objects.
        self._lock = threading.Lock()

    @property
    def security_requirements(self) -> List[str]:
        """All requirement ids realized by this method, in case order."""
        seen: Dict[str, None] = {}
        for case in self.cases:
            for requirement in case.security_requirements:
                seen.setdefault(requirement, None)
        return list(seen)

    # -- evaluation ------------------------------------------------------------

    def probe_plan(self, roots: Optional[Tuple[str, ...]] = None):
        """The roots each monitoring phase must bind, as a ``ProbePlan``.

        *roots* is the provider's bindable root set (defaults to the
        Cinder scenario's).  The plan is a static analysis of the
        contract's ASTs (see :mod:`repro.core.planning`); the expressions
        are immutable, so the result is memoized per root set (under the
        contract's lock -- fleet shards share contract objects).
        """
        key = tuple(roots) if roots is not None else None
        with self._lock:
            if key not in self._probe_plans:
                from .planning import ProbePlan

                self._probe_plans[key] = ProbePlan.for_contract(self,
                                                                roots=key)
            return self._probe_plans[key]

    def instrument(self, observability) -> "MethodContract":
        """Report evaluation timings into *observability* (``None`` stops).

        Instrumented contracts record an ``ocl_eval_seconds`` histogram
        and an ``ocl_evaluations_total`` counter (both labelled by phase)
        around every pre/snapshot/post evaluation.  Returns self for
        chaining.
        """
        self._obs = observability
        return self

    def _record_eval(self, phase: str, start: float) -> None:
        obs = self._obs
        obs.metrics.histogram(
            "ocl_eval_seconds", "OCL contract evaluation latency, by phase",
            phase=phase).observe(obs.clock() - start)
        obs.metrics.counter(
            "ocl_evaluations_total", "OCL contract evaluations, by phase",
            phase=phase).inc()

    def applicable_cases(self, context: Context) -> List[ContractCase]:
        """The cases whose pre-condition holds in *context* (pre-state).

        Each case pre-condition is evaluated once.  Pre(m) is their
        disjunction, so the pre-condition holds exactly when this list is
        non-empty; the monitor reads both from this one call, observed as
        the ``pre`` phase.
        """
        obs = self._obs
        start = obs.clock() if obs is not None else 0.0
        applicable = [case for case, holds in self._case_checks
                      if holds(context)]
        if obs is not None:
            self._record_eval("pre", start)
        return applicable

    def check_pre(self, context: Context) -> bool:
        """Evaluate the pre-condition in the current (pre-call) state."""
        return bool(self.applicable_cases(context))

    def snapshot(self, context: Context) -> Snapshot:
        """Capture every ``pre()`` value the post-condition will need.

        Runs the snapshot plan: one closure per structurally distinct
        ``pre()`` operand of the post-condition, stored under the keys the
        post-condition looks up.
        """
        obs = self._obs
        start = obs.clock() if obs is not None else 0.0
        snapshot = Snapshot()
        values = snapshot.values
        for key, capture in self._snapshot_plan:
            values[key] = capture(context)
        if obs is not None:
            self._record_eval("snapshot", start)
        return snapshot

    def check_post(self, context: Context, snapshot: Snapshot) -> bool:
        """Evaluate the post-condition in the post-call state."""
        obs = self._obs
        start = obs.clock() if obs is not None else 0.0
        result = self._post_check(context, snapshot)
        if obs is not None:
            self._record_eval("post", start)
        return result

    # -- rendering ----------------------------------------------------------------

    def precondition_text(self) -> str:
        """The pre-condition as canonical OCL."""
        return to_text(self.precondition)

    def postcondition_text(self) -> str:
        """The post-condition as canonical OCL."""
        return to_text(self.postcondition)

    def render(self) -> str:
        """The Listing-1 layout: labelled pre and post blocks."""
        header = f"{self.trigger.method}({self.uri})"
        pre_terms = " or\n ".join(
            f"({to_text(case.precondition)})" for case in self.cases)
        post_terms = " and\n ".join(
            f"(pre({to_text(case.precondition)}) => "
            f"{to_text(case.postcondition)})"
            for case in self.cases)
        return (
            f"PreCondition({header}):\n[{pre_terms}]\n\n"
            f"PostCondition({header}):\n[{post_terms}]"
        )

    def __repr__(self) -> str:
        return f"<MethodContract {self.trigger} cases={len(self.cases)}>"


class ContractGenerator:
    """Generates method contracts for every trigger of a behavioral model."""

    def __init__(self, machine: StateMachine,
                 diagram: Optional[ClassDiagram] = None,
                 simplify: bool = False):
        self.machine = machine
        self.diagram = diagram
        self.simplify = simplify
        #: OCL text -> AST, so each distinct model text parses once.
        self._parsed: Dict[str, Expression] = {}

    def _parse(self, text: str) -> Expression:
        """Parse *text* once per generator; cases share the immutable AST."""
        node = self._parsed.get(text)
        if node is None:
            node = self._parsed[text] = parse(text)
        return node

    def _uri_for(self, trigger: Trigger) -> Optional[str]:
        if self.diagram is None:
            return None
        cls = self.diagram.find_class(trigger.resource)
        if cls is None:
            return None
        if cls.is_collection:
            return self.diagram.uri_paths().get(cls.name)
        return self.diagram.item_uri(cls.name)

    def for_trigger(self, trigger) -> MethodContract:
        """The contract of one trigger (``Trigger`` or ``"METHOD(res)"``)."""
        if not isinstance(trigger, Trigger):
            trigger = Trigger.parse(trigger)
        transitions = self.machine.transitions_triggered_by(trigger)
        cases = [ContractCase(t, self.machine, simplify=self.simplify,
                              parser=self._parse)
                 for t in transitions]
        return MethodContract(trigger, cases, uri=self._uri_for(trigger))

    def all_contracts(self) -> Dict[Trigger, MethodContract]:
        """Contracts for every distinct trigger, in model order."""
        return {trigger: self.for_trigger(trigger)
                for trigger in self.machine.triggers()}
