"""API hygiene rules: mutable default arguments, bare/broad excepts.

Not reproduction-specific, but both constructs have bitten pipelines like
this one: a mutable default silently accumulates licenses across calls,
and a broad ``except`` swallows the exact numeric errors (convergence
failures, degenerate geometry) the analyses must surface, not hide.
"""

from __future__ import annotations

import ast

from repro.lint.registry import FileContext, Rule, call_name

#: Constructor names (bare or the trailing part of a dotted call) whose
#: result is a fresh mutable container: ``dict()`` and
#: ``collections.defaultdict(list)`` are the same trap.
_MUTABLE_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "Counter", "OrderedDict"}
)
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and call_name(node) in _MUTABLE_CONSTRUCTORS
    )


class MutableDefaultRule(Rule):
    """No list/dict/set literals (or constructors) as argument defaults."""

    name = "mutable-default"
    description = (
        "mutable default argument: one shared instance across every call; "
        "default to None and construct inside the function"
    )
    interests = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        args = node.args  # type: ignore[union-attr]
        for default in (*args.defaults, *args.kw_defaults):
            if default is not None and _is_mutable_default(default):
                ctx.report(
                    self,
                    default,
                    "mutable default argument is shared across calls; "
                    "use None and construct per call",
                )


class BroadExceptRule(Rule):
    """No bare ``except:`` and no ``except Exception/BaseException``."""

    name = "broad-except"
    description = (
        "bare or Exception-wide except swallows numeric and logic errors "
        "the pipeline must surface; catch the specific exception"
    )
    interests = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            ctx.report(
                self, node, "bare except: catches everything including "
                "KeyboardInterrupt; name the expected exception"
            )
            return
        names = (
            node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        )
        for name_node in names:
            if (
                isinstance(name_node, ast.Name)
                and name_node.id in _BROAD_EXCEPTIONS
            ):
                ctx.report(
                    self,
                    node,
                    f"except {name_node.id} is too broad; catch the "
                    "specific exception the call can raise",
                )
                return
