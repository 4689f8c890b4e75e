"""Built-in lint rules.

Importing this package registers every built-in rule with the registry —
:func:`repro.lint.registry.registered_rules` does so lazily, so rule
modules stay import-cycle-free and cheap to load.

Adding a rule: create (or extend) a module here, subclass
:class:`repro.lint.registry.Rule`, decorate it with ``@register``, and add
the module to the import list below.  DESIGN.md §"Static analysis"
documents the conventions (naming, path scoping, configuration).
"""

from repro.lint.rules import (  # noqa: F401  (imports register the rules)
    cache,
    determinism,
    floats,
    hygiene,
    layering,
    obs,
    units,
)
