"""One path for live-decided charges: only the appliers touch pool state.

A replay plan adds the call's recorded totals and re-runs only its pool
and storage effects (DESIGN.md §16), so "memoized == interpreted" holds
by construction — as long as everything that depends on live pool or
storage state goes through an applier.  This reads ``vm.py``'s syntax
tree and fails on an allocation-counter assignment, a ``record_alloc`` /
``record_free`` call, a ``pool.allocate`` / ``pool.release`` call or a
read of ``alloc_overhead`` anywhere else.
"""

import ast
import inspect

from repro.runtime import plans, vm

APPLIERS = {"_alloc_charge", "_pool_allocate", "_pool_release", "_storage"}
ALLOWED = APPLIERS | {"__init__", "reset_stats"}
#: The ``ExecutionStats`` fields that pool and storage traffic move.
POOL_FIELDS = {"allocations", "allocated_bytes_total", "escaping_bytes_total",
               "current_bytes", "peak_bytes"}
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
            if isinstance(target, ast.Attribute) and target.attr in POOL_FIELDS:
                yield sub.lineno, f"assigns .{target.attr}"
        if isinstance(sub, ast.Attribute) and sub.attr == "alloc_overhead":
            yield sub.lineno, "reads .alloc_overhead"
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
    assert source.count("stats") == 1
    assert "self.stats.merge(plan.totals)" in source
    assert "+=" not in source


def test_class_plans_change_no_accounting_state():
    """A class plan only computes what the appliers are called with."""
    assert list(_charges(ast.parse(inspect.getsource(plans)))) == []
