"""Resource-balance rule: paired acquires must release on every path.

Runs the CFG-based may-leak analysis (:mod:`repro.analysis.dataflow`)
over each function of the storage/serving/sharding/net runtime.  The
disciplines it proves are exactly the ones PR 9's pin/evict race and
the fault-injection harness exercise dynamically:

* ``BufferPool.pin`` -> ``unpin`` (a pin leaked on an exception path
  permanently blocks eviction of that page);
* ``lock.acquire`` -> ``lock.release`` outside ``with``;
* manually driven context managers (``cm = lock_factory();
  cm.__enter__()``) -> ``__exit__``;
* owned sockets (``socket.socket`` / ``socket.create_connection``
  bound to a local) -> ``close`` or an ownership transfer.

``with`` statements are trusted to balance their own items; storing a
resource on ``self``/a container, returning it, or passing it to a
callee transfers the release duty to the new owner.
"""

from __future__ import annotations

import ast

from repro.analysis import dataflow
from repro.analysis.engine import ModuleContext, in_dirs, rule


@rule("resource-balance",
      "paired acquires (pin/acquire/__enter__/socket) must release on "
      "every CFG path, exceptional paths included",
      applies=in_dirs("storage/", "serving/", "sharding/", "net/"))
def check_resource_balance(context: ModuleContext) -> None:
    pairs = dict(context.config.resource_pairs)
    ctor_calls = dict(context.config.resource_constructors)
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        violations = dataflow.analyze_resources(
            node, pairs=pairs, ctor_calls=ctor_calls,
            resolver=context.resolve_call_target)
        for violation in violations:
            obligation = violation.obligation
            if violation.exceptional and violation.normal:
                where = "normal and exception paths"
            elif violation.exceptional:
                where = "an exception path"
            else:
                where = "a normal-return path"
            if obligation.acquire in pairs:
                what = (f"{obligation.receiver}.{obligation.acquire}() "
                        f"is not matched by {obligation.receiver}."
                        f"{obligation.release}()")
            else:
                what = (f"{obligation.receiver} = "
                        f"{obligation.acquire}(...) is never "
                        f"{obligation.receiver}.{obligation.release}()d "
                        f"or handed to an owner")
            context.report(
                _line_anchor(obligation.line), "resource-balance",
                f"{what} on {where}; release it in a finally/except or "
                f"hand ownership to a context manager")


class _Anchor:
    """Minimal object carrying a ``lineno`` for ``context.report``."""

    def __init__(self, lineno: int) -> None:
        self.lineno = lineno


def _line_anchor(line: int) -> _Anchor:
    return _Anchor(line)
