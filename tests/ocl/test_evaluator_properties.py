"""Property-based tests for OCL evaluation invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ocl import Context, Evaluator, Snapshot, evaluate, parse, to_text
from repro.ocl.nodes import Binary, Literal, Name, Unary
from repro.ocl.values import UNDEFINED, as_collection, ocl_equal, unique

_bool_leaves = st.one_of(
    st.booleans().map(Literal),
    st.sampled_from(["p", "q", "r"]).map(Name),
)


def _bool_expressions(depth=3):
    if depth <= 0:
        return _bool_leaves
    sub = _bool_expressions(depth - 1)
    return st.one_of(
        _bool_leaves,
        st.tuples(st.sampled_from(["and", "or", "xor", "implies"]), sub, sub)
        .map(lambda t: Binary(t[0], t[1], t[2])),
        sub.map(lambda e: Unary("not", e)),
    )


_bindings = st.fixed_dictionaries({
    "p": st.booleans(), "q": st.booleans(), "r": st.booleans()})


class TestBooleanAlgebra:
    @given(_bool_expressions(), _bool_expressions(), _bindings)
    @settings(max_examples=150, deadline=None)
    def test_implies_equals_not_or(self, a, b, bindings):
        left = evaluate(Binary("implies", a, b), bindings)
        right = evaluate(Binary("or", Unary("not", a), b), bindings)
        assert left == right

    @given(_bool_expressions(), _bool_expressions(), _bindings)
    @settings(max_examples=150, deadline=None)
    def test_de_morgan(self, a, b, bindings):
        left = evaluate(Unary("not", Binary("and", a, b)), bindings)
        right = evaluate(
            Binary("or", Unary("not", a), Unary("not", b)), bindings)
        assert left == right

    @given(_bool_expressions(), _bindings)
    @settings(max_examples=150, deadline=None)
    def test_double_negation(self, a, bindings):
        assert evaluate(Unary("not", Unary("not", a)), bindings) == \
            evaluate(a, bindings)

    @given(_bool_expressions(), _bindings)
    @settings(max_examples=100, deadline=None)
    def test_round_trip_preserves_value(self, a, bindings):
        assert evaluate(parse(to_text(a)), bindings) == evaluate(a, bindings)

    @given(_bool_expressions(), _bindings)
    @settings(max_examples=100, deadline=None)
    def test_evaluation_deterministic(self, a, bindings):
        assert evaluate(a, bindings) == evaluate(a, bindings)


class TestCollectionLaws:
    @given(st.lists(st.integers(min_value=-5, max_value=5)))
    @settings(max_examples=100, deadline=None)
    def test_as_set_size_bounded(self, xs):
        assert evaluate("xs->asSet()->size()", {"xs": xs}) <= len(xs)

    @given(st.lists(st.integers(min_value=-5, max_value=5)))
    @settings(max_examples=100, deadline=None)
    def test_including_grows_by_one(self, xs):
        grown = evaluate("xs->including(99)->size()", {"xs": xs})
        assert grown == len(xs) + 1

    @given(st.lists(st.integers(min_value=-3, max_value=3)),
           st.integers(min_value=-3, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_excluding_then_excludes(self, xs, x):
        bindings = {"xs": xs, "x": x}
        assert evaluate("xs->excluding(x)->excludes(x)", bindings) is True

    @given(st.lists(st.integers(min_value=-3, max_value=3)),
           st.integers(min_value=-3, max_value=3))
    @settings(max_examples=100, deadline=None)
    def test_count_consistent_with_includes(self, xs, x):
        bindings = {"xs": xs, "x": x}
        count = evaluate("xs->count(x)", bindings)
        includes = evaluate("xs->includes(x)", bindings)
        assert (count > 0) == includes

    @given(st.lists(st.integers(min_value=0, max_value=9), min_size=1))
    @settings(max_examples=100, deadline=None)
    def test_select_reject_partition(self, xs):
        bindings = {"xs": xs}
        selected = evaluate("xs->select(v | v > 4)->size()", bindings)
        rejected = evaluate("xs->reject(v | v > 4)->size()", bindings)
        assert selected + rejected == len(xs)

    @given(st.lists(st.integers(min_value=0, max_value=9)))
    @settings(max_examples=100, deadline=None)
    def test_for_all_is_not_exists_not(self, xs):
        bindings = {"xs": xs}
        for_all = evaluate("xs->forAll(v | v > 4)", bindings)
        not_exists = evaluate("not xs->exists(v | not (v > 4))", bindings)
        assert for_all == not_exists


class TestValueHelpers:
    @given(st.one_of(st.none(), st.integers(), st.text(max_size=5),
                     st.lists(st.integers(), max_size=5)))
    @settings(max_examples=100, deadline=None)
    def test_as_collection_idempotent_on_lists(self, value):
        once = as_collection(value)
        assert as_collection(once) == once

    @given(st.lists(st.integers(min_value=-3, max_value=3)))
    @settings(max_examples=100, deadline=None)
    def test_unique_preserves_membership(self, xs):
        deduped = unique(xs)
        assert len(deduped) <= len(xs)
        for item in xs:
            assert any(ocl_equal(item, other) for other in deduped)

    def test_undefined_is_falsy_and_empty(self):
        assert not UNDEFINED
        assert as_collection(UNDEFINED) == []


class TestSnapshotProperties:
    @given(st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=100))
    @settings(max_examples=100, deadline=None)
    def test_snapshot_freezes_old_value(self, before, after):
        expression = "pre(x) - x"
        snapshot = Snapshot().capture(expression, Context({"x": before}))
        result = Evaluator(Context({"x": after}), snapshot).evaluate(expression)
        assert result == before - after

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_unchanged_state_means_pre_equals_now(self, value):
        context = Context({"x": value})
        snapshot = Snapshot().capture("pre(x) = x", context)
        assert Evaluator(context, snapshot).evaluate("pre(x) = x") is True

    @given(st.integers(min_value=0, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_capture_idempotent(self, value):
        context = Context({"x": value})
        snapshot = Snapshot()
        snapshot.capture("pre(x)", context)
        first = dict(snapshot.values)
        snapshot.capture("pre(x)", context)
        assert snapshot.values == first
