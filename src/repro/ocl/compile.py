"""Compiling OCL ASTs to Python closures.

The paper's tool is described as "a Python compiler with a greater
capacity for compilation and processing of data structures" (Section
VI-B).  This module is that idea applied to the contracts themselves: an
expression is compiled *once* into a tree of closures, eliminating the
per-evaluation isinstance dispatch of the tree-walking interpreter.
Every generated contract compiles itself this way when it is built
(:func:`compile_contract`), so the monitor never walks an AST on a
request.

Semantics are shared with the interpreter through :mod:`repro.ocl.ops`;
the interpreter (:class:`~repro.ocl.evaluator.Evaluator`) stays as the
oracle the compiled closures are tested against.

Usage::

    compiled = compile_expression("project.volumes->size() < quota")
    compiled(context)             # pre-state evaluation
    compiled(context, snapshot)   # post-state evaluation with old values
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from ..errors import OCLEvaluationError, OCLTypeError
from . import ops
from .context import Context
from .evaluator import Snapshot, collect_pre_expressions
from .nodes import (
    ArrowCall,
    Binary,
    Conditional,
    Expression,
    IteratorCall,
    Let,
    Literal,
    MethodCall,
    Name,
    Navigation,
    Pre,
    Unary,
)
from .parser import parse
from .values import ocl_equal, ocl_truthy, require_number

#: A compiled expression: (context, snapshot) -> value.
Compiled = Callable[[Context, Optional[Snapshot]], Any]

#: Closures already built during one compile, keyed by node identity.
_Memo = Dict[int, Compiled]


def compile_expression(expression: Union[str, Expression]) -> Compiled:
    """Compile *expression* (text or AST) to a closure tree."""
    return _compile(parse(expression), {})


def compile_bool(expression: Union[str, Expression]) -> Compiled:
    """Like :func:`compile_expression` but coercing to a boolean."""
    return _truthy(compile_expression(expression))


def compile_snapshot_plan(
        expression: Union[str, Expression],
) -> List[Tuple[tuple, Compiled]]:
    """Compile *expression*'s snapshot capture: (key, closure) pairs.

    One entry per structurally distinct outermost ``pre()`` node, in
    first-occurrence order; the key is the operand's structural key --
    exactly what :meth:`repro.ocl.evaluator.Snapshot.capture` stores, so
    a snapshot filled from this plan is interchangeable with an
    interpreted capture of the same expression.
    """
    return _snapshot_plan(parse(expression), {})


def compile_contract(
        preconditions: Sequence[Expression], postcondition: Expression,
) -> Tuple[List[Compiled], Compiled, List[Tuple[tuple, Compiled]]]:
    """Compile one method contract: ``(case checks, post check, plan)``.

    *preconditions* are the contract's case pre-conditions, each compiled
    to a boolean check; *postcondition* is the Listing-1 conjunction of
    ``pre(case_pre) implies ...``, compiled to a boolean check over
    ``(context, snapshot)``; the plan is its :func:`compile_snapshot_plan`.
    All three share one closure per AST node: a case pre-condition is
    also the operand of its ``pre()`` antecedent, so the snapshot plan
    reuses the case's closure instead of compiling it again.
    """
    memo: _Memo = {}
    checks = [_truthy(_compile(node, memo)) for node in preconditions]
    post = _truthy(_compile(postcondition, memo))
    return checks, post, _snapshot_plan(postcondition, memo)


def _truthy(inner: Compiled) -> Compiled:
    def run(context: Context, snapshot: Optional[Snapshot] = None) -> bool:
        return ocl_truthy(inner(context, snapshot))

    return run


def _snapshot_plan(expression: Expression,
                   memo: _Memo) -> List[Tuple[tuple, Compiled]]:
    plan: List[Tuple[tuple, Compiled]] = []
    seen = set()
    for pre_node in collect_pre_expressions(expression):
        key = pre_node.operand._key()
        if key in seen:
            continue
        seen.add(key)
        plan.append((key, _compile(pre_node.operand, memo)))
    return plan


def _compile(node: Expression, memo: _Memo) -> Compiled:
    """*node*'s closure, built at most once per *memo*."""
    compiled = memo.get(id(node))
    if compiled is None:
        compiled = memo[id(node)] = _build(node, memo)
    return compiled


def _build(node: Expression, memo: _Memo) -> Compiled:
    if isinstance(node, Literal):
        value = node.value
        return lambda context, snapshot=None: value

    if isinstance(node, Name):
        identifier = node.identifier
        return lambda context, snapshot=None: context.lookup(identifier)

    if isinstance(node, Navigation):
        source = _compile(node.source, memo)
        attribute = node.attribute
        return lambda context, snapshot=None: context.navigate(
            source(context, snapshot), attribute)

    if isinstance(node, Pre):
        inner = _compile(node.operand, memo)
        key = node.operand._key()
        pre_node = node

        def run_pre(context: Context,
                    snapshot: Optional[Snapshot] = None) -> Any:
            if snapshot is None:
                return inner(context, snapshot)
            values = snapshot.values
            if key in values:
                return values[key]
            return snapshot.lookup(pre_node)  # raises: nothing captured

        return run_pre

    if isinstance(node, Let):
        value = _compile(node.value, memo)
        body = _compile(node.body, memo)
        variable = node.variable
        return lambda context, snapshot=None: body(
            context.child(variable, value(context, snapshot)), snapshot)

    if isinstance(node, Conditional):
        condition = _compile(node.condition, memo)
        then_branch = _compile(node.then_branch, memo)
        else_branch = _compile(node.else_branch, memo)
        return lambda context, snapshot=None: (
            then_branch(context, snapshot)
            if ocl_truthy(condition(context, snapshot))
            else else_branch(context, snapshot))

    if isinstance(node, Unary):
        operand = _compile(node.operand, memo)
        if node.operator == "not":
            return lambda context, snapshot=None: not ocl_truthy(
                operand(context, snapshot))
        if node.operator == "-":
            def negate(context: Context,
                       snapshot: Optional[Snapshot] = None) -> Any:
                try:
                    return -require_number(operand(context, snapshot),
                                           "unary minus")
                except TypeError as exc:
                    raise OCLTypeError(str(exc)) from exc

            return negate
        raise OCLEvaluationError(
            f"unknown unary operator {node.operator!r}")

    if isinstance(node, Binary):
        return _compile_binary(node, memo)

    if isinstance(node, ArrowCall):
        source = _compile(node.source, memo)
        arguments = [_compile(argument, memo)
                     for argument in node.arguments]
        operation = node.operation
        return lambda context, snapshot=None: ops.collection_op(
            operation, source(context, snapshot),
            [argument(context, snapshot) for argument in arguments])

    if isinstance(node, IteratorCall):
        source = _compile(node.source, memo)
        body = _compile(node.body, memo)
        operation = node.operation
        variable = node.variable

        def run_iterator(context: Context,
                         snapshot: Optional[Snapshot] = None) -> Any:
            return ops.iterator_op(
                operation, source(context, snapshot),
                lambda item: body(context.child(variable, item), snapshot))

        return run_iterator

    if isinstance(node, MethodCall):
        source = _compile(node.source, memo)
        arguments = [_compile(argument, memo)
                     for argument in node.arguments]
        operation = node.operation
        return lambda context, snapshot=None: ops.method_op(
            operation, source(context, snapshot),
            [argument(context, snapshot) for argument in arguments])

    raise OCLEvaluationError(f"cannot compile node {node!r}")


def _compile_binary(node: Binary, memo: _Memo) -> Compiled:
    operator = node.operator
    left = _compile(node.left, memo)
    right = _compile(node.right, memo)

    if operator == "and":
        return lambda context, snapshot=None: (
            ocl_truthy(left(context, snapshot))
            and ocl_truthy(right(context, snapshot)))
    if operator == "or":
        return lambda context, snapshot=None: (
            ocl_truthy(left(context, snapshot))
            or ocl_truthy(right(context, snapshot)))
    if operator == "implies":
        return lambda context, snapshot=None: (
            not ocl_truthy(left(context, snapshot))
            or ocl_truthy(right(context, snapshot)))
    if operator == "xor":
        return lambda context, snapshot=None: (
            ocl_truthy(left(context, snapshot))
            != ocl_truthy(right(context, snapshot)))
    if operator == "=":
        return lambda context, snapshot=None: ocl_equal(
            left(context, snapshot), right(context, snapshot))
    if operator == "<>":
        return lambda context, snapshot=None: not ocl_equal(
            left(context, snapshot), right(context, snapshot))
    if operator in ("<", ">", "<=", ">="):
        return lambda context, snapshot=None: ops.compare(
            operator, left(context, snapshot), right(context, snapshot))
    if operator in Binary.ARITHMETIC:
        return lambda context, snapshot=None: ops.arith(
            operator, left(context, snapshot), right(context, snapshot))
    raise OCLEvaluationError(f"unknown binary operator {operator!r}")
