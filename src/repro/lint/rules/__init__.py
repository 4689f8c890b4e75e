"""Built-in lint rules.

Adding a rule: create (or extend) a module here, subclass
:class:`repro.lint.registry.Rule`, and add the class to :data:`RULES`.  A
path-scoped rule keeps its scope as a constant in its own module.
DESIGN.md §"Static analysis" documents the conventions (naming, path
scoping).
"""

from repro.lint.rules.cache import CacheDisciplineRule
from repro.lint.rules.determinism import HashSeedRule, UnseededRngRule, WallClockRule
from repro.lint.rules.floats import FloatEqualityRule
from repro.lint.rules.hygiene import BroadExceptRule, MutableDefaultRule
from repro.lint.rules.layering import LayeringRule
from repro.lint.rules.obs import ObsDisciplineRule
from repro.lint.rules.units import UnitSuffixRule

#: Every rule the linter runs, ordered by rule name.
RULES = (
    BroadExceptRule,
    CacheDisciplineRule,
    FloatEqualityRule,
    HashSeedRule,
    LayeringRule,
    MutableDefaultRule,
    ObsDisciplineRule,
    UnitSuffixRule,
    UnseededRngRule,
    WallClockRule,
)
