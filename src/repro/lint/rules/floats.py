"""Float safety: no ``==``/``!=`` against float literals in numeric kernels.

Geodesic distances and refractive-index latencies are chains of
floating-point operations; comparing their results to a float literal with
``==`` is almost always a bug (the classic ``0.1 + 0.2 != 0.3``).  The rule
is scoped to the numeric kernels (:data:`FLOAT_EQ_PATHS`) where such comparisons decide physics, not to the
whole tree — elsewhere float equality is rare enough to review by hand.

Genuine exact-sentinel checks (e.g. Vincenty's ``sin_sigma == 0.0`` guard
for coincident points, where the value is *assigned*, not computed
approximately) are kept with an inline ``# lint: disable=float-eq`` pragma
and a one-line justification.
"""

from __future__ import annotations

import ast

from repro.lint.registry import FileContext, Rule

#: Where the float-eq rule applies (project-root-relative prefixes).
FLOAT_EQ_PATHS = (
    "src/repro/geodesy/",
    "src/repro/core/latency.py",
    "src/repro/metrics/",
)


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    # A negated literal (-1.5) parses as UnaryOp(USub, Constant).
    return (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, (ast.USub, ast.UAdd))
        and _is_float_literal(node.operand)
    )


class FloatEqualityRule(Rule):
    """No ``==`` / ``!=`` against float literals in the numeric kernels."""

    name = "float-eq"
    description = (
        "== / != against a float literal in a numeric kernel: compare "
        "with a tolerance (math.isclose) or justify the exact sentinel "
        "with a pragma"
    )
    interests = (ast.Compare,)

    def applies_to(self, rel_path: str) -> bool:
        return any(
            rel_path == prefix or rel_path.startswith(prefix)
            for prefix in FLOAT_EQ_PATHS
        )

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Compare)
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_float_literal(left) or _is_float_literal(right):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                ctx.report(
                    self,
                    node,
                    f"float literal compared with {symbol}; use a tolerance "
                    "(math.isclose) or pragma-justify the exact sentinel",
                )
                return
