"""Tests for the OCL closure compiler, including interpreter equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OCLEvaluationError, OCLNameError, OCLTypeError
from repro.ocl import (
    Context,
    Evaluator,
    Snapshot,
    compile_bool,
    compile_expression,
)
from repro.ocl.nodes import (
    ArrowCall,
    Binary,
    Conditional,
    IteratorCall,
    Let,
    Literal,
    MethodCall,
    Name,
    Navigation,
    Pre,
    Unary,
)

BINDINGS = {
    "project": {"volumes": [{"id": "v1", "status": "available"},
                            {"id": "v2", "status": "in-use"}]},
    "quota_sets": {"volumes": 5},
    "user": {"roles": ["admin"], "groups": ["proj_administrator"]},
    "x": 7,
    "s": "hello",
}


def both(expression, bindings=None):
    context = Context(bindings or BINDINGS, strict=False)
    interpreted = Evaluator(context).evaluate(expression)
    compiled = compile_expression(expression)(context)
    return interpreted, compiled


class TestBasicEquivalence:
    @pytest.mark.parametrize("expression", [
        "42",
        "'in-use'",
        "true and false or true",
        "x + 3 * 2",
        "x / 0",
        "-x",
        "not (x > 3)",
        "project.volumes->size()",
        "project.volumes->size() < quota_sets.volumes",
        "user.roles->includes('admin')",
        "project.volumes->select(v | v.status = 'in-use')->size()",
        "project.volumes->forAll(v | v.id->size() = 1)",
        "project.volumes->collect(v | v.status)->asSet()->size()",
        "let n = project.volumes->size() in n * n",
        "if x > 3 then 'big' else 'small' endif",
        "s.toUpper()",
        "s.substring(2, 4)",
        "x.oclIsUndefined()",
        "ghost.path->size()",
        "1 = 2 implies 3 = 4",
        "project.volumes->first().status",
        "project.volumes->at(2).id",
    ])
    def test_matches_interpreter(self, expression):
        interpreted, compiled = both(expression)
        assert interpreted == compiled

    def test_compile_bool_coerces(self):
        context = Context(BINDINGS, strict=False)
        assert compile_bool("ghost.thing")(context) is False

    def test_unbound_name_raises_strict(self):
        context = Context({}, strict=True)
        with pytest.raises(OCLNameError):
            compile_expression("missing")(context)

    def test_type_error_propagates(self):
        context = Context({"a": "text"})
        with pytest.raises(OCLTypeError):
            compile_expression("a < 3")(context)

    def test_unknown_operation_raises_at_run(self):
        context = Context({"xs": [1]})
        with pytest.raises(OCLEvaluationError):
            compile_expression("xs->frobnicate()")(context)

    def test_compiled_is_reusable(self):
        compiled = compile_expression("x + 1")
        assert compiled(Context({"x": 1})) == 2
        assert compiled(Context({"x": 10})) == 11


class TestSnapshotSupport:
    def test_pre_with_snapshot(self):
        post = "project.volumes->size() < pre(project.volumes->size())"
        before = Context({"project": {"volumes": [1, 2]}}, strict=False)
        snapshot = Snapshot().capture(post, before)
        after = Context({"project": {"volumes": [1]}}, strict=False)
        assert compile_bool(post)(after, snapshot) is True
        assert compile_bool(post)(before, snapshot) is False

    def test_pre_without_snapshot_uses_current(self):
        context = Context({"x": 3})
        assert compile_expression("pre(x) = x")(context) is True

    def test_snapshot_parity_with_interpreter(self):
        post = ("pre(project.volumes->size()) - project.volumes->size() = 1"
                " and user.roles->includes('admin')")
        before = Context(BINDINGS, strict=False)
        snapshot = Snapshot().capture(post, before)
        after_bindings = dict(BINDINGS)
        after_bindings["project"] = {"volumes": [{"id": "v1"}]}
        after = Context(after_bindings, strict=False)
        interpreted = Evaluator(after, snapshot).evaluate_bool(post)
        compiled = compile_bool(post)(after, snapshot)
        assert interpreted == compiled is True


# -- property-based equivalence --------------------------------------------------

_names = st.sampled_from(["project", "user", "x", "s"])
_attrs = st.sampled_from(["volumes", "roles", "status", "id"])


def _expressions(depth=3):
    literals = st.one_of(
        st.integers(min_value=0, max_value=20).map(Literal),
        st.booleans().map(Literal),
        st.sampled_from(["in-use", "admin"]).map(Literal),
    )
    if depth <= 0:
        return st.one_of(literals, _names.map(Name))
    sub = _expressions(depth - 1)
    return st.one_of(
        literals,
        _names.map(Name),
        st.tuples(sub, _attrs).map(lambda t: Navigation(*t)),
        st.tuples(sub, st.sampled_from(["size", "isEmpty", "asSet"])).map(
            lambda t: ArrowCall(*t)),
        st.tuples(sub, st.sampled_from(["select", "exists", "collect"]),
                  st.just("v"), sub).map(lambda t: IteratorCall(*t)),
        st.tuples(st.sampled_from(["and", "or", "implies", "=", "<>", "+"]),
                  sub, sub).map(lambda t: Binary(*t)),
        sub.map(lambda e: Unary("not", e)),
        sub.map(Pre),
        st.tuples(st.just("n"), sub, sub).map(lambda t: Let(*t)),
        st.tuples(sub, sub, sub).map(lambda t: Conditional(*t)),
        st.tuples(sub).map(lambda t: MethodCall(t[0], "oclIsUndefined")),
    )


class TestPropertyEquivalence:
    @given(_expressions())
    @settings(max_examples=300, deadline=None)
    def test_compiler_matches_interpreter(self, expression):
        context = Context(BINDINGS, strict=False)
        try:
            interpreted = Evaluator(context).evaluate(expression)
            interpreter_error = None
        except Exception as exc:  # noqa: BLE001 - parity includes errors
            interpreted = None
            interpreter_error = type(exc)
        try:
            compiled = compile_expression(expression)(context)
            compiler_error = None
        except Exception as exc:  # noqa: BLE001
            compiled = None
            compiler_error = type(exc)
        assert interpreter_error == compiler_error
        if interpreter_error is None:
            assert interpreted == compiled
