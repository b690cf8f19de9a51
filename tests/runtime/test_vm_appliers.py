"""One accounting path: only the appliers change what the VM charges.

Interpretation and replay plans charge through the same applier methods
(DESIGN.md §16), so "memoized == interpreted" holds by construction —
as long as no other code in ``vm.py`` touches ``stats``, the pool or the
storages.  This reads ``vm.py``'s syntax tree and fails on an
``ExecutionStats`` field assignment, a ``record_alloc`` / ``record_free``
call or a ``pool.allocate`` / ``pool.release`` call anywhere else.
"""

import ast
import inspect
from dataclasses import fields

from repro.runtime import ExecutionStats, vm

APPLIERS = {"_kernel", "_charge", "_wire", "_graph_launch", "_builtin",
            "_capture", "_pool_allocate", "_pool_release", "_storage"}
ALLOWED = APPLIERS | {"__init__", "reset_stats"}
STATS_FIELDS = {f.name for f in fields(ExecutionStats)}
TREE = ast.parse(inspect.getsource(vm))


def _methods():
    (cls,) = [n for n in TREE.body
              if isinstance(n, ast.ClassDef) and n.name == "VirtualMachine"]
    return {n.name: n for n in cls.body if isinstance(n, ast.FunctionDef)}


def _charges(node):
    """Every statement under ``node`` that changes accounting state."""
    for sub in ast.walk(node):
        targets = []
        if isinstance(sub, ast.Assign):
            targets = sub.targets
        elif isinstance(sub, (ast.AugAssign, ast.AnnAssign)):
            targets = [sub.target]
        for target in targets:
            if isinstance(target, ast.Attribute) and target.attr in STATS_FIELDS:
                yield sub.lineno, f"assigns .{target.attr}"
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            attr, owner = sub.func.attr, sub.func.value
            if attr in ("record_alloc", "record_free"):
                yield sub.lineno, f"calls .{attr}"
            if attr in ("allocate", "release") and \
                    isinstance(owner, ast.Attribute) and owner.attr == "pool":
                yield sub.lineno, f"calls pool.{attr}"


def test_only_appliers_change_accounting_state():
    methods = _methods()
    assert APPLIERS <= set(methods)
    outside = [f"{name}:{line}: {what}" for name, node in methods.items()
               if name not in ALLOWED for line, what in _charges(node)]
    assert outside == []
    module_level = [f"{line}: {what}" for line, what in _charges(ast.Module(
        [n for n in TREE.body if not isinstance(n, ast.ClassDef)], []))]
    assert module_level == []
    # The scan sees what it guards: it catches every applier.
    assert {name for name in APPLIERS if any(_charges(methods[name]))} == APPLIERS


def test_replay_is_a_decode_loop_over_the_appliers():
    source = ast.unparse(_methods()["_apply_plan"])
    assert "stats" not in source
    assert "+=" not in source
