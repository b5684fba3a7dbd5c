"""Unit tests for the linear-expression algebra (DESIGN.md §5h)."""

import ast

from repro.lint.linexpr import (
    LinExpr,
    N,
    T,
    ONE,
    admissible_domain,
    always_ge,
    first_failure,
    parse_expr_text,
    parse_linear,
)


def parse(text: str) -> LinExpr:
    expr = parse_linear(ast.parse(text, mode="eval").body)
    assert expr is not None, text
    return expr


class TestParsing:
    def test_canonical_forms(self):
        assert parse("2 * self.t + 1") == LinExpr(0, 2, 1)
        assert parse("self.n - self.t") == LinExpr(1, -1, 0)
        assert parse("self.public.t + 1") == LinExpr(0, 1, 1)
        assert parse("n") == N
        assert parse("3 * t") == LinExpr(0, 3, 0)
        assert parse("-t + n") == N - T

    def test_render_round_trips(self):
        for text in ("2t+1", "n-t", "t+1", "n", "3t", "n-2t", "5"):
            expr = parse_expr_text(text)
            assert expr is not None and expr.render() == text

    def test_non_linear_rejected(self):
        for text in ("self.epoch % self.n", "self.n // 2", "self.n * self.t",
                     "needed", "msg.t + 1"):
            node = ast.parse(text, mode="eval").body
            assert parse_linear(node) is None

    def test_non_self_rooted_attrs_rejected(self):
        assert parse_linear(ast.parse("msg.n", mode="eval").body) is None

    def test_float_and_bool_constants_rejected(self):
        assert parse_linear(ast.parse("1.5", mode="eval").body) is None
        assert parse_linear(ast.parse("True", mode="eval").body) is None


class TestDomain:
    def test_domain_respects_resilience(self):
        points = list(admissible_domain())
        assert (4, 1) in points and (64, 21) in points
        assert all(n >= 3 * t + 1 and t >= 1 and n <= 64 for n, t in points)
        assert (3, 1) not in points

    def test_quorum_intersection_facts(self):
        # n-t quorums always intersect in t+1: 2(n-t) - n >= t+1.
        assert always_ge((N - T).scale(2) - N, T + ONE)
        # 2t+1 quorums do NOT in general: first failure is (5, 1).
        bad = first_failure((T.scale(2) + ONE).scale(2) - N, T + ONE)
        assert bad == (5, 1)
        # ... but hold on every minimal n == 3t+1 cluster.
        for t in (1, 2, 3, 5):
            n = 3 * t + 1
            q = 2 * t + 1
            assert 2 * q - n >= t + 1

    def test_liveness_bound(self):
        assert always_ge(N - T, N - T)
        assert first_failure(N - T, N - T + ONE) == (4, 1)
