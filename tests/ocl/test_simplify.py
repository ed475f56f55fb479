"""Tests for the OCL simplifier, including equivalence properties."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ocl import evaluate, parse, simplify, to_text
from repro.ocl.nodes import Binary, Literal, Name, Unary


def text(source):
    return to_text(simplify(source))


class TestConnectiveSimplification:
    def test_and_true_unit(self):
        assert text("x and true") == "x"
        assert text("true and x") == "x"

    def test_and_false_absorbs(self):
        assert text("x and false") == "false"

    def test_or_false_unit(self):
        assert text("x or false") == "x"

    def test_or_true_absorbs(self):
        assert text("x or true") == "true"

    def test_duplicate_conjuncts_collapse(self):
        assert text("x and x") == "x"
        assert text("x and y and x") == "x and y"

    def test_duplicate_disjuncts_collapse(self):
        assert text("x or x or y") == "x or y"

    def test_nested_units_removed(self):
        assert text("(x and true) or (false or y)") == "x or y"

    def test_implies_constant_sides(self):
        assert text("false implies x") == "true"
        assert text("true implies x") == "x"
        assert text("x implies true") == "true"

    def test_xor(self):
        assert text("true xor false") == "true"
        assert text("x xor x") == "false"

    def test_double_negation(self):
        assert text("not not x") == "x"

    def test_not_literal(self):
        assert text("not true") == "false"


class TestComparisonFolding:
    def test_numeric_comparisons(self):
        assert text("1 < 2") == "true"
        assert text("3 <= 2") == "false"
        assert text("2 = 2") == "true"
        assert text("2 <> 2") == "false"

    def test_string_equality(self):
        assert text("'a' = 'a'") == "true"
        assert text("'a' <> 'b'") == "true"

    def test_bool_int_not_conflated(self):
        assert text("true = 1") == "false"

    def test_pure_syntactic_equality(self):
        assert text("x + 1 = x + 1") == "true"
        assert text("x <> x") == "false"

    def test_impure_equality_kept(self):
        # Navigation may change between evaluations; keep it.
        assert text("a.b = a.b") == "a.b = a.b"

    def test_arrow_calls_not_folded(self):
        assert "size" in text("xs->size() = xs->size()")


class TestStructural:
    def test_conditional_folding(self):
        assert text("if true then a else b endif") == "a"
        assert text("if false then a else b endif") == "b"
        assert text("if c then a else b endif") == "if c then a else b endif"

    def test_pre_of_constant_unwrapped(self):
        assert text("pre(3)") == "3"

    def test_pre_of_expression_kept(self):
        assert text("pre(x->size())") == "pre(x->size())"

    def test_simplification_inside_iterator_body(self):
        assert text("xs->select(v | v > 1 and true)") == \
            "xs->select(v | v > 1)"

    def test_contract_shaped_input(self):
        source = ("(project.id->size() = 1 and true) or false or "
                  "(project.id->size() = 1 and true)")
        assert text(source) == "project.id->size() = 1"

    def test_accepts_ast_input(self):
        node = Binary("and", Name("x"), Literal(True))
        assert simplify(node) == Name("x")


# -- equivalence property -------------------------------------------------------

_leaves = st.one_of(
    st.booleans().map(Literal),
    st.sampled_from(["p", "q", "r"]).map(Name),
)


def _expressions(depth=3):
    if depth <= 0:
        return _leaves
    sub = _expressions(depth - 1)
    return st.one_of(
        _leaves,
        st.tuples(st.sampled_from(["and", "or", "xor", "implies", "=", "<>"]),
                  sub, sub).map(lambda t: Binary(t[0], t[1], t[2])),
        sub.map(lambda e: Unary("not", e)),
    )


_bindings = st.fixed_dictionaries({
    "p": st.booleans(), "q": st.booleans(), "r": st.booleans()})


class TestEquivalenceProperties:
    @given(_expressions(), _bindings)
    @settings(max_examples=300, deadline=None)
    def test_simplify_preserves_value(self, expression, bindings):
        assert evaluate(simplify(expression), bindings) == \
            evaluate(expression, bindings)

    @given(_expressions())
    @settings(max_examples=150, deadline=None)
    def test_simplify_idempotent(self, expression):
        once = simplify(expression)
        assert simplify(once) == once

    @given(_expressions())
    @settings(max_examples=150, deadline=None)
    def test_simplified_not_larger(self, expression):
        assert len(list(simplify(expression).walk())) <= \
            len(list(expression.walk()))

    @given(_expressions())
    @settings(max_examples=100, deadline=None)
    def test_simplified_round_trips_through_text(self, expression):
        simplified = simplify(expression)
        assert parse(to_text(simplified)) == simplified
