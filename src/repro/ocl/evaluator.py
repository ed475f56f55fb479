"""Evaluation of OCL expressions, including ``pre()`` old values.

Post-conditions reference the state *before* the method executed through
``pre(...)`` (paper Listing 1: ``project.volumes->size() <
pre(project.volumes->size())``).  The monitor therefore evaluates in two
phases:

1. Before forwarding the request, :meth:`Snapshot.capture` evaluates every
   ``pre()`` sub-expression in the current state and stores the results --
   the paper's "local variables of the monitor implementation".
2. After the response arrives, the whole post-condition is evaluated with
   the snapshot supplying the stored values for ``pre()`` nodes.

Evaluating a ``pre()`` node *without* a snapshot simply evaluates its body
in the current state, which is the correct reading inside a pre-condition.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Union

from ..errors import OCLEvaluationError, OCLTypeError
from .context import Context
from .nodes import (
    ArrowCall,
    Binary,
    Conditional,
    Let,
    Expression,
    IteratorCall,
    Literal,
    MethodCall,
    Name,
    Navigation,
    Pre,
    Unary,
)
from . import ops
from .parser import parse
from .values import UNDEFINED, ocl_equal, ocl_truthy, require_number


def collect_pre_expressions(expression: Union[str, Expression]) -> List[Pre]:
    """Return every ``pre()`` node in *expression*, outermost first.

    Nested ``pre()`` inside another ``pre()`` is redundant (both refer to
    the same old state), so only outermost nodes are returned.
    """
    root = parse(expression)
    found: List[Pre] = []

    def visit(node: Expression) -> None:
        if isinstance(node, Pre):
            found.append(node)
            return  # do not descend: inner pre() shares the same old state
        for child in node.children():
            visit(child)

    visit(root)
    return found


class Snapshot:
    """Captured old values for the ``pre()`` nodes of one expression.

    Keys are the structural keys of the ``pre()`` nodes, so structurally
    identical occurrences share one stored value.  :attr:`storage_bytes`
    estimates the monitor-side storage the paper argues is tiny ("usually
    this only requires a few bits of storage per method").
    """

    def __init__(self):
        self.values: Dict[tuple, Any] = {}

    def capture(self, expression: Union[str, Expression], context: Context) -> "Snapshot":
        """Evaluate and store each ``pre()`` body of *expression* in *context*."""
        for node in collect_pre_expressions(expression):
            key = node.operand._key()
            if key not in self.values:
                self.values[key] = Evaluator(context).evaluate(node.operand)
        return self

    def lookup(self, node: Pre) -> Any:
        """Return the stored old value for *node*."""
        key = node.operand._key()
        try:
            return self.values[key]
        except KeyError:
            raise OCLEvaluationError(
                f"no snapshot value captured for {node!r}") from None

    @property
    def storage_bytes(self) -> int:
        """Rough size of the stored old values, for the OVERHEAD experiment."""
        total = 0
        for value in self.values.values():
            if isinstance(value, bool) or value is None or value is UNDEFINED:
                total += 1
            elif isinstance(value, (int, float)):
                total += 8
            elif isinstance(value, str):
                total += len(value.encode())
            elif isinstance(value, (list, tuple)):
                total += 8 * max(len(value), 1)
            else:
                total += 8
        return total

    def __len__(self) -> int:
        return len(self.values)


class Evaluator:
    """Evaluates parsed OCL expressions in a :class:`Context`.

    The tree-walking reference semantics: generated contracts run
    compiled closures (:mod:`repro.ocl.compile`), and this interpreter is
    the oracle they are tested against.
    """

    def __init__(self, context: Context, snapshot: Optional[Snapshot] = None):
        self.context = context
        self.snapshot = snapshot

    def evaluate(self, expression: Union[str, Expression]) -> Any:
        """Evaluate *expression* (text or AST) to a value."""
        return self._eval(parse(expression), self.context)

    def evaluate_bool(self, expression: Union[str, Expression]) -> bool:
        """Evaluate and coerce to a boolean (undefined counts as false)."""
        return ocl_truthy(self.evaluate(expression))

    # -- node dispatch -----------------------------------------------------

    def _eval(self, node: Expression, context: Context) -> Any:
        if isinstance(node, Literal):
            return node.value
        if isinstance(node, Name):
            return context.lookup(node.identifier)
        if isinstance(node, Navigation):
            source = self._eval(node.source, context)
            return context.navigate(source, node.attribute)
        if isinstance(node, Pre):
            if self.snapshot is not None:
                return self.snapshot.lookup(node)
            return self._eval(node.operand, context)
        if isinstance(node, Let):
            value = self._eval(node.value, context)
            return self._eval(node.body, context.child(node.variable, value))
        if isinstance(node, Conditional):
            if ocl_truthy(self._eval(node.condition, context)):
                return self._eval(node.then_branch, context)
            return self._eval(node.else_branch, context)
        if isinstance(node, Unary):
            return self._eval_unary(node, context)
        if isinstance(node, Binary):
            return self._eval_binary(node, context)
        if isinstance(node, ArrowCall):
            return self._eval_arrow(node, context)
        if isinstance(node, IteratorCall):
            return self._eval_iterator(node, context)
        if isinstance(node, MethodCall):
            return self._eval_method(node, context)
        raise OCLEvaluationError(f"cannot evaluate node {node!r}")

    def _eval_unary(self, node: Unary, context: Context) -> Any:
        value = self._eval(node.operand, context)
        if node.operator == "not":
            return not ocl_truthy(value)
        if node.operator == "-":
            try:
                return -require_number(value, "unary minus")
            except TypeError as exc:
                raise OCLTypeError(str(exc)) from exc
        raise OCLEvaluationError(f"unknown unary operator {node.operator!r}")

    def _eval_binary(self, node: Binary, context: Context) -> Any:
        op = node.operator
        if op in Binary.CONNECTIVES:
            left = ocl_truthy(self._eval(node.left, context))
            if op == "and":
                return left and ocl_truthy(self._eval(node.right, context))
            if op == "or":
                return left or ocl_truthy(self._eval(node.right, context))
            if op == "implies":
                return (not left) or ocl_truthy(self._eval(node.right, context))
            if op == "xor":
                return left != ocl_truthy(self._eval(node.right, context))
        left = self._eval(node.left, context)
        right = self._eval(node.right, context)
        if op == "=":
            return ocl_equal(left, right)
        if op == "<>":
            return not ocl_equal(left, right)
        if op in ("<", ">", "<=", ">="):
            return ops.compare(op, left, right)
        if op in Binary.ARITHMETIC:
            return ops.arith(op, left, right)
        raise OCLEvaluationError(f"unknown binary operator {op!r}")

    def _eval_arrow(self, node: ArrowCall, context: Context) -> Any:
        source = self._eval(node.source, context)
        arguments = [self._eval(arg, context) for arg in node.arguments]
        return ops.collection_op(node.operation, source, arguments)

    def _eval_iterator(self, node: IteratorCall, context: Context) -> Any:
        source = self._eval(node.source, context)

        def body(item: Any) -> Any:
            return self._eval(node.body, context.child(node.variable, item))

        return ops.iterator_op(node.operation, source, body)

    def _eval_method(self, node: MethodCall, context: Context) -> Any:
        source = self._eval(node.source, context)
        arguments = [self._eval(arg, context) for arg in node.arguments]
        return ops.method_op(node.operation, source, arguments)


def evaluate(
    expression: Union[str, Expression],
    bindings: Optional[dict] = None,
    context: Optional[Context] = None,
    snapshot: Optional[Snapshot] = None,
) -> Any:
    """One-shot convenience: evaluate *expression* against *bindings*."""
    if context is None:
        context = Context(bindings or {})
    return Evaluator(context, snapshot).evaluate(expression)
