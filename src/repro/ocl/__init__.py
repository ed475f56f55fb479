"""An OCL expression engine covering the subset the paper's contracts use.

The paper specifies state invariants, transition guards, and generated
pre/post-conditions in OCL (Section IV-B, Listing 1).  This package provides:

* :mod:`repro.ocl.lexer` / :mod:`repro.ocl.parser` -- text to AST,
* :mod:`repro.ocl.nodes` -- the AST node classes,
* :mod:`repro.ocl.values` -- the value domain (including ``Undefined``),
* :mod:`repro.ocl.context` -- name bindings and pluggable navigation,
* :mod:`repro.ocl.evaluator` -- evaluation with ``pre()`` old-value
  snapshots, as required by the post-conditions of Listing 1 (the
  reference semantics),
* :mod:`repro.ocl.compile` -- the same semantics compiled once to
  closures, which is how generated contracts run,
* :mod:`repro.ocl.pretty` -- canonical rendering used by the contract
  generator and the code generator,
* :mod:`repro.ocl.usage` -- static free-name / root-usage analysis that
  drives the monitor's demand-driven probe planning.

The supported syntax (a practical OCL subset plus the paper's notation):

``and or xor not implies`` (also ``=>`` / ``==>`` as the paper writes
implication), comparisons ``= <> < > <= >=``, arithmetic ``+ - * /``,
navigation ``a.b``, collection operations ``c->size()``, ``c->isEmpty()``,
``c->notEmpty()``, ``c->includes(x)``, ``c->excludes(x)``, ``c->sum()``,
``c->count(x)``, ``c->first()``, ``c->last()``, ``c->at(i)``,
``c->asSet()``, iterator forms ``c->select(v | expr)``, ``reject``,
``collect``, ``forAll``, ``exists``, ``one``, ``isUnique``, old values
``pre(expr)`` (paper notation) and ``expr@pre`` (standard OCL), and
``x.oclIsUndefined()``.
"""

from .compile import (
    compile_bool,
    compile_contract,
    compile_expression,
    compile_snapshot_plan,
)
from .context import Context, DictNavigator, Navigator, ObjectNavigator
from .evaluator import Evaluator, Snapshot, collect_pre_expressions, evaluate
from .lexer import tokenize
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
from .pretty import to_text
from .simplify import simplify
from .usage import free_names, old_value_roots, post_state_roots, required_roots
from .values import UNDEFINED, Undefined, is_defined

__all__ = [
    "ArrowCall",
    "Binary",
    "Conditional",
    "Context",
    "DictNavigator",
    "Evaluator",
    "Expression",
    "IteratorCall",
    "Let",
    "Literal",
    "MethodCall",
    "Name",
    "Navigation",
    "Navigator",
    "ObjectNavigator",
    "Pre",
    "Snapshot",
    "UNDEFINED",
    "Unary",
    "Undefined",
    "collect_pre_expressions",
    "compile_bool",
    "compile_contract",
    "compile_expression",
    "compile_snapshot_plan",
    "evaluate",
    "free_names",
    "is_defined",
    "old_value_roots",
    "parse",
    "post_state_roots",
    "required_roots",
    "simplify",
    "to_text",
    "tokenize",
]
