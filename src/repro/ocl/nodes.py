"""AST node classes for the OCL subset.

Every node is immutable after construction, supports structural equality
(used to deduplicate ``pre()`` snapshot entries), and renders back to
canonical OCL text through :mod:`repro.ocl.pretty`.
"""

from __future__ import annotations

from typing import Any, Iterator, Optional, Sequence, Tuple


class Expression:
    """Base class for all OCL AST nodes."""

    #: Subclasses list their child-expression attribute names here.
    _children: Tuple[str, ...] = ()
    #: Subclasses list their non-expression data attribute names here.
    _data: Tuple[str, ...] = ()
    #: The memoized :meth:`_key` (set on the instance on first use).
    _structural_key: Optional[tuple] = None

    def children(self) -> Iterator["Expression"]:
        """Yield direct child expressions."""
        for attr in self._children:
            value = getattr(self, attr)
            if isinstance(value, Expression):
                yield value
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Expression):
                        yield item

    def walk(self) -> Iterator["Expression"]:
        """Yield this node and all descendants, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()

    def _key(self) -> tuple:
        """The structural key: equal exactly for structurally equal nodes.

        Computed on first use and kept on the node, which is immutable.
        """
        key = self._structural_key
        if key is not None:
            return key
        parts: list = [type(self).__name__]
        for attr in self._data:
            parts.append(getattr(self, attr))
        for attr in self._children:
            value = getattr(self, attr)
            if isinstance(value, (list, tuple)):
                parts.append(tuple(child._key() for child in value))
            elif value is None:
                parts.append(None)
            else:
                parts.append(value._key())
        key = self._structural_key = tuple(parts)
        return key

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Expression):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        from .pretty import to_text

        return f"<{type(self).__name__} {to_text(self)!r}>"


class Literal(Expression):
    """A constant: integer, real, string, boolean, or null."""

    _data = ("value",)

    def __init__(self, value: Any):
        self.value = value


class Name(Expression):
    """A bare identifier resolved against the evaluation context."""

    _data = ("identifier",)

    def __init__(self, identifier: str):
        self.identifier = identifier


class Navigation(Expression):
    """Dot navigation ``source.attribute`` (association or attribute)."""

    _children = ("source",)
    _data = ("attribute",)

    def __init__(self, source: Expression, attribute: str):
        self.source = source
        self.attribute = attribute


class MethodCall(Expression):
    """Dot call ``source.operation(args)`` -- e.g. ``oclIsUndefined()``."""

    _children = ("source", "arguments")
    _data = ("operation",)

    def __init__(self, source: Expression, operation: str,
                 arguments: Sequence[Expression] = ()):
        self.source = source
        self.operation = operation
        self.arguments = tuple(arguments)


class ArrowCall(Expression):
    """Collection call ``source->operation(args)`` -- e.g. ``->size()``."""

    _children = ("source", "arguments")
    _data = ("operation",)

    def __init__(self, source: Expression, operation: str,
                 arguments: Sequence[Expression] = ()):
        self.source = source
        self.operation = operation
        self.arguments = tuple(arguments)


class IteratorCall(Expression):
    """Iterator call ``source->select(v | body)`` and friends."""

    _children = ("source", "body")
    _data = ("operation", "variable")

    def __init__(self, source: Expression, operation: str, variable: str,
                 body: Expression):
        self.source = source
        self.operation = operation
        self.variable = variable
        self.body = body


class Unary(Expression):
    """``not expr`` or arithmetic negation ``-expr``."""

    _children = ("operand",)
    _data = ("operator",)

    def __init__(self, operator: str, operand: Expression):
        self.operator = operator
        self.operand = operand


class Binary(Expression):
    """A binary operator: connective, comparison, or arithmetic."""

    _children = ("left", "right")
    _data = ("operator",)

    CONNECTIVES = ("and", "or", "xor", "implies")
    COMPARISONS = ("=", "<>", "<", ">", "<=", ">=")
    ARITHMETIC = ("+", "-", "*", "/")

    def __init__(self, operator: str, left: Expression, right: Expression):
        self.operator = operator
        self.left = left
        self.right = right


class Pre(Expression):
    """An old-value reference: ``pre(expr)`` (paper) or ``expr@pre`` (OCL).

    In a post-condition, the wrapped expression is evaluated in the state
    *before* the method executed; the monitor captures those values in a
    snapshot (paper Section V: "we save the resource state before the method
    execution in the local variables of the monitor implementation").
    """

    _children = ("operand",)

    def __init__(self, operand: Expression):
        self.operand = operand


class Let(Expression):
    """OCL ``let x = value in body``: a local name binding."""

    _children = ("value", "body")
    _data = ("variable",)

    def __init__(self, variable: str, value: Expression, body: Expression):
        self.variable = variable
        self.value = value
        self.body = body


class Conditional(Expression):
    """OCL ``if c then a else b endif`` (both branches are mandatory)."""

    _children = ("condition", "then_branch", "else_branch")

    def __init__(self, condition: Expression, then_branch: Expression,
                 else_branch: Expression):
        self.condition = condition
        self.then_branch = then_branch
        self.else_branch = else_branch


def conjoin(terms: Sequence[Expression]) -> Expression:
    """Fold *terms* into a left-associated ``and`` chain (true if empty)."""
    terms = list(terms)
    if not terms:
        return Literal(True)
    result = terms[0]
    for term in terms[1:]:
        result = Binary("and", result, term)
    return result


def disjoin(terms: Sequence[Expression]) -> Expression:
    """Fold *terms* into a left-associated ``or`` chain (false if empty)."""
    terms = list(terms)
    if not terms:
        return Literal(False)
    result = terms[0]
    for term in terms[1:]:
        result = Binary("or", result, term)
    return result
