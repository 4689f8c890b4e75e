"""Unit-suffix safety: don't add metres to kilometres.

The codebase encodes physical units in identifier suffixes — ``_m`` /
``_km`` for distances, ``_s`` / ``_ms`` / ``_us`` for times (latencies are
quoted in ms, gaps in µs, per-tower overheads in µs; geodesics in metres,
corridor lengths in km).  The cheapest unit bug is additive: summing or
comparing two identifiers whose suffixes disagree *within one dimension*
(``trunk_km + tail_m``) silently produces numbers off by 10³ — exactly the
class of error a speed-of-light latency reproduction cannot absorb.

The rule is deliberately conservative to stay false-positive-free: it only
fires when **both direct operands** of a ``+``/``-``/comparison are plain
identifiers (names, attributes or calls) with recognised, conflicting
suffixes of the same dimension.  Multiplication and division are exempt —
they are how conversions are written (``geodesic_m(...) / 1000.0``).
"""

from __future__ import annotations

import ast

from repro.lint.registry import FileContext, Rule

#: Unit-suffix vocabulary: suffixes within one group share a dimension and
#: must not be mixed in a single additive expression or comparison.
UNIT_GROUPS = (
    ("_m", "_km"),
    ("_s", "_ms", "_us"),
)

#: suffix → dimension-group index, longest suffixes first (so ``_ms`` is
#: not mistaken for ``_s``).
_SUFFIXES = sorted(
    ((suffix, index) for index, group in enumerate(UNIT_GROUPS)
     for suffix in group),
    key=lambda entry: len(entry[0]),
    reverse=True,
)


def _identifier_of(node: ast.AST) -> str | None:
    """The trailing identifier if ``node`` is a name/attribute/call chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _identifier_of(node.func)
    return None


class UnitSuffixRule(Rule):
    """No additive mixing of conflicting unit suffixes (``_m`` + ``_km``)."""

    name = "unit-suffix"
    description = (
        "identifiers with conflicting unit suffixes (_m vs _km, _ms vs "
        "_us) mixed additively; convert explicitly before combining"
    )
    interests = (ast.BinOp, ast.Compare, ast.AugAssign)

    def _unit_of(self, node: ast.AST) -> tuple[str, int] | None:
        identifier = _identifier_of(node)
        if identifier is None:
            return None
        for suffix, group in _SUFFIXES:
            if identifier.endswith(suffix) and len(identifier) > len(suffix):
                return suffix, group
        return None

    def _check_pair(
        self, left: ast.AST, right: ast.AST, node: ast.AST, ctx: FileContext
    ) -> None:
        unit_left = self._unit_of(left)
        unit_right = self._unit_of(right)
        if unit_left is None or unit_right is None:
            return
        (suffix_left, group_left) = unit_left
        (suffix_right, group_right) = unit_right
        if group_left == group_right and suffix_left != suffix_right:
            ctx.report(
                self,
                node,
                f"mixing units {suffix_left!r} and {suffix_right!r} in one "
                "expression; convert explicitly before combining",
            )

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                self._check_pair(node.left, node.right, node, ctx)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                self._check_pair(node.target, node.value, node, ctx)
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for left, right in zip(operands, operands[1:]):
                self._check_pair(left, right, node, ctx)
