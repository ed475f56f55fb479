"""Fuzzing the OCL parser and the policy rule parser.

Contract texts and policy rules are user-authored; arbitrary input must
either parse or raise the documented error type -- never an internal
exception -- and parsing must terminate quickly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OCLSyntaxError, PolicyError
from repro.ocl import evaluate, parse, to_text
from repro.rbac import PolicyRule

_TOKENS = st.sampled_from([
    "project", "volume", "x", "pre", "let", "in", "if", "then", "else",
    "endif", "and", "or", "not", "implies", "true", "false", "null",
    "->", ".", "(", ")", "=", "<>", "<", ">", "<=", ">=", "+", "-", "*",
    "/", "|", ",", "size", "select", "includes", "1", "42", "'s'", "@pre",
    "=>",
])


class TestParserFuzz:
    @given(st.lists(_TOKENS, max_size=12).map(" ".join))
    @settings(max_examples=400, deadline=None)
    def test_token_soup_parses_or_syntax_errors(self, source):
        try:
            parse(source)
        except OCLSyntaxError:
            pass

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_text(self, source):
        try:
            parse(source)
        except OCLSyntaxError:
            pass

    @given(st.lists(_TOKENS, max_size=12).map(" ".join))
    @settings(max_examples=200, deadline=None)
    def test_successful_parses_round_trip(self, source):
        try:
            node = parse(source)
        except OCLSyntaxError:
            return
        assert parse(to_text(node)) == node

    @given(st.lists(_TOKENS, max_size=10).map(" ".join))
    @settings(max_examples=200, deadline=None)
    def test_successful_parses_evaluate_without_internal_errors(self, source):
        from repro.errors import OCLError
        from repro.ocl import Context

        try:
            node = parse(source)
        except OCLSyntaxError:
            return
        context = Context({"project": {"volumes": [1]}, "volume": {},
                           "x": 3, "pre": 1, "size": 2, "select": 4,
                           "includes": 5}, strict=False)
        try:
            evaluate(node, context=context)
        except OCLError:
            pass  # documented evaluation/type errors are acceptable


_POLICY_TOKENS = st.sampled_from([
    "role:admin", "role:member", "group:g", "rule:r", "@", "!", "and",
    "or", "not", "(", ")", "user_id:%(user_id)s", "###", ":",
])


class TestPolicyRuleFuzz:
    @given(st.lists(_POLICY_TOKENS, max_size=10).map(" ".join))
    @settings(max_examples=300, deadline=None)
    def test_rule_soup_parses_or_policy_errors(self, source):
        try:
            rule = PolicyRule("r", source)
        except PolicyError:
            return
        # Parsed rules must also evaluate without internal errors
        # (rule:r references are unknown -> PolicyError is documented).
        try:
            rule.check({"roles": ["admin"], "groups": []})
        except PolicyError:
            pass

    @given(st.text(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_policy_text(self, source):
        try:
            PolicyRule("r", source)
        except PolicyError:
            pass
