"""Tests for the simplifier's folds and the compiled snapshot plan.

The gate is semantic: a fold must be invisible to the verdict.  The
property suite pins interpreter == compiler == simplify-then-compile on
total boolean expressions, including mixed int/float literals.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ocl import (
    Context,
    Evaluator,
    Snapshot,
    compile_bool,
    compile_snapshot_plan,
    parse,
    simplify,
)
from repro.ocl.nodes import Binary, Literal, Name, Navigation
from repro.ocl.values import ocl_equal

BINDINGS = {
    "project": {"volumes": [{"id": "v1", "status": "available"},
                            {"id": "v2", "status": "in-use"}],
                "n": 2},
    "quota_sets": {"volumes": 5},
    "user": {"roles": ["admin"], "n": 1},
    "x": 7,
}


def context():
    return Context(BINDINGS, strict=False)


class TestSimplifierFolds:
    """The satellite fixes: comparisons through ocl_equal, arithmetic."""

    @pytest.mark.parametrize("expression, value", [
        ("1 = 1.0", True),           # mixed int/float equal by value
        ("1.5 = 3 / 2", True),
        ("2 <> 2.0", False),
        ("true = 1", False),         # bools are not their int values
        ("false = 0", False),
        ("true = true", True),
        ("'a' <> 'b'", True),
        ("1 + 2 = 3", True),
        ("2 * 3.5 = 7.0", True),
        ("10 - 3 < 8", True),
    ])
    def test_comparison_folds_to_literal(self, expression, value):
        node = simplify(parse(expression))
        assert isinstance(node, Literal)
        assert node.value is value

    def test_arithmetic_folds_preserving_type(self):
        folded = simplify(parse("1 + 2.0"))
        assert isinstance(folded, Literal)
        assert folded.value == 3.0 and isinstance(folded.value, float)
        folded = simplify(parse("1 + 2"))
        assert folded.value == 3 and isinstance(folded.value, int)

    def test_string_concat_folds(self):
        folded = simplify(parse("'ab' + 'cd'"))
        assert isinstance(folded, Literal)
        assert folded.value == "abcd"

    def test_division_by_zero_stays_unfolded(self):
        node = simplify(parse("1 / 0"))
        assert isinstance(node, Binary) and node.operator == "/"

    def test_type_error_stays_unfolded(self):
        node = simplify(parse("'a' + 3"))
        assert isinstance(node, Binary) and node.operator == "+"


class TestSnapshotPlan:
    def test_plan_matches_interpreted_capture(self):
        post = ("pre(project.volumes->size()) - project.volumes->size()"
                " = 1 and pre(user.n) = user.n")
        interpreted = Snapshot().capture(post, context())
        compiled = Snapshot()
        for key, closure in compile_snapshot_plan(post):
            compiled.values[key] = closure(context())
        assert compiled.values == interpreted.values

    def test_plan_dedupes_structural_duplicates(self):
        post = "pre(user.n) = 1 and pre(user.n) < 2"
        plan = compile_snapshot_plan(post)
        assert len(plan) == 1


# -- property-based equivalence ------------------------------------------------

_numbers = st.one_of(
    st.integers(min_value=-9, max_value=9),
    st.floats(min_value=-8.0, max_value=8.0,
              allow_nan=False, allow_infinity=False),
)


def _arith(depth=3):
    """Arithmetic over mixed int/float literals; no division (totality)."""
    if depth <= 0:
        return _numbers.map(Literal)
    sub = _arith(depth - 1)
    return st.one_of(
        _numbers.map(Literal),
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub).map(
            lambda t: Binary(*t)),
    )


def _atoms():
    """Total boolean atoms: literal comparisons and bound navigations."""
    return st.one_of(
        st.booleans().map(Literal),
        st.tuples(st.sampled_from(["=", "<>", "<", ">", "<=", ">="]),
                  _arith(2), _arith(2)).map(lambda t: Binary(*t)),
        st.tuples(st.sampled_from(["project", "quota_sets", "user"]),
                  st.sampled_from(["n", "volumes"]),
                  st.integers(min_value=0, max_value=5)).map(
            lambda t: Binary("=", Navigation(Name(t[0]), t[1]),
                             Literal(t[2]))),
    )


def _booleans(depth=3):
    if depth <= 0:
        return _atoms()
    sub = _booleans(depth - 1)
    return st.one_of(
        _atoms(),
        st.tuples(st.sampled_from(["and", "or"]), sub, sub).map(
            lambda t: Binary(*t)),
    )


class TestPropertyEquivalence:
    @given(_arith())
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_fold_parity(self, expression):
        """simplify folds literal arithmetic to the interpreter's value,
        preserving the int/float distinction."""
        interpreted = Evaluator(context()).evaluate(expression)
        folded = simplify(expression)
        assert isinstance(folded, Literal)
        assert ocl_equal(folded.value, interpreted)
        assert type(folded.value) is type(interpreted)

    @given(_booleans())
    @settings(max_examples=300, deadline=None)
    def test_interpreter_compiler_simplifier_agree(self, expression):
        """interpreter == compiler == simplify-then-compile on total
        boolean expressions."""
        ctx = context()
        interpreted = Evaluator(ctx).evaluate_bool(expression)
        compiled = compile_bool(expression)(ctx)
        simplified = compile_bool(simplify(expression))(ctx)
        assert interpreted == compiled == simplified
