"""Determinism: no wall clocks, no unseeded randomness, no
set-iteration-order dependence in the replayed core.

Replay digests (``repro serve``), the differential oracle, and the
benchmark's correctness checks all assume that two runs over the same document and
workload produce byte-identical answers.  Three statically catchable
ways to break that, banned in ``core/``, ``indexes/``, ``queries/`` and
``serving/``:

* **wall-clock reads** — ``time.time`` / ``datetime.now`` etc.
  (``time.monotonic`` / ``perf_counter`` / ``sleep`` stay allowed: they
  pace and measure but must never feed answers);
* **the process-global random generator** — ``random.<anything>``
  except constructing a seeded ``random.Random``;
* **taking *one* arbitrary element of a set** — ``some_set.pop()`` or
  ``next(iter(some_set))`` where the receiver is syntactically a set
  (literal, comprehension, ``set()``/``frozenset()`` call, or a local
  most recently bound to one).  Iterating a whole set into another
  order-insensitive set is fine; picking one element depends on hash
  order, which ``PYTHONHASHSEED`` perturbs across runs for strings.
  The deterministic spellings are ``min()``/``max()``/``sorted()[0]``.

Extents are additionally held to the compact-data-plane contract:
``IndexNode.extent`` is a pre-sorted immutable int array
(:class:`repro.core.extents.Extent`), so

* **iterating a set built from an extent** (``for oid in
  set(node.extent)``, or over a set-BinOp with an extent operand)
  throws away the sorted order the array already guarantees and
  reintroduces hash-order dependence — iterate the extent directly;
* **set-method spellings** (``node.extent.intersection(...)`` etc.) do
  not exist on the array type — use the ``&``/``|``/``-`` operators or
  the merge helpers in :mod:`repro.core.extents`;
* **re-sorting** (``sorted(node.extent)``) is redundant work on every
  call — ``list(node.extent)`` is already sorted.

``src/repro/net`` is additionally held to a liveness contract: every
blocking socket receive (``recv`` and friends, ``accept``) must happen
in a function that arms a socket timeout, so a silent peer can never
wedge a server worker or survive a shutdown request — see
:func:`_check_socket_reads`.
"""

from __future__ import annotations

import ast

from repro.analysis.engine import ModuleContext, in_dirs, owned_nodes, rule

RULE_ID = "determinism"


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id in ("set", "frozenset"):
        return True
    if isinstance(node, ast.BinOp) and \
            isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)) and \
            (_is_set_expression(node.left) or _is_set_expression(node.right)):
        return True
    return False


def _set_typed_locals(nodes: list[ast.AST]) -> set[str]:
    """Names whose every assignment in the function is a set expression.

    Single-pass, flow-insensitive on purpose: a name is only trusted to
    be a set when nothing in the function rebinds it to something else,
    so the check can't false-positive on rebound names.
    """
    set_named: set[str] = set()
    rebound: set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if _is_set_expression(node.value):
                set_named.add(name)
            else:
                rebound.add(name)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and \
                isinstance(node.target, ast.Name):
            target = node.target.id
            value = getattr(node, "value", None)
            if value is None or not _is_set_expression(value):
                rebound.add(target)
            else:
                set_named.add(target)
    return set_named - rebound


def _check_banned_calls(context: ModuleContext) -> None:
    config = context.config
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        target = context.resolve_call_target(node.func)
        if target is None:
            continue
        if target in config.banned_calls:
            context.report(
                node, RULE_ID,
                f"{config.banned_calls[target]} '{target}' is banned in "
                f"replay-deterministic code; use a seed/epoch passed in "
                f"by the caller (time.monotonic is fine for pacing)")
        elif target.startswith("random.") and \
                target.split(".", 1)[1] not in \
                config.random_allowed_members:
            context.report(
                node, RULE_ID,
                f"process-global '{target}' is unseeded and "
                f"nondeterministic; construct random.Random(seed) and "
                f"thread it through")


def _check_set_order(context: ModuleContext) -> None:
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owned = owned_nodes(node)
        set_locals = _set_typed_locals(owned)

        def is_set(expr: ast.expr,
                   set_locals: set[str] = set_locals) -> bool:
            if _is_set_expression(expr):
                return True
            return isinstance(expr, ast.Name) and expr.id in set_locals

        for inner in owned:
            if not isinstance(inner, ast.Call):
                continue
            func = inner.func
            # <set>.pop() — one arbitrary element.
            if isinstance(func, ast.Attribute) and func.attr == "pop" \
                    and not inner.args and is_set(func.value):
                context.report(
                    inner, RULE_ID,
                    "'.pop()' on a set takes a hash-order-dependent "
                    "element; use min()/max()/sorted() to pick "
                    "deterministically")
            # next(iter(<set>)) — same thing in disguise.
            first = inner.args[0] if inner.args else None
            if isinstance(func, ast.Name) and func.id == "next" and \
                    isinstance(first, ast.Call):
                if isinstance(first.func, ast.Name) and \
                        first.func.id == "iter" and first.args \
                        and is_set(first.args[0]):
                    context.report(
                        inner, RULE_ID,
                        "'next(iter(<set>))' takes a hash-order-dependent "
                        "element; use min()/max()/sorted() to pick "
                        "deterministically")


def _mentions_extent(node: ast.AST) -> bool:
    return any(isinstance(inner, ast.Attribute) and inner.attr == "extent"
               for inner in ast.walk(node))


def _is_set_over_extent(node: ast.expr) -> bool:
    """``set(<...extent...>)`` / ``frozenset(...)``, or a set-BinOp with
    an extent mentioned in either operand."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and \
            node.func.id in ("set", "frozenset") and node.args and \
            _mentions_extent(node.args[0]):
        return True
    if isinstance(node, ast.BinOp) and \
            isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)) and \
            (_is_set_expression(node.left) or _is_set_expression(node.right)) \
            and _mentions_extent(node):
        return True
    return False


def _check_extent_order(context: ModuleContext) -> None:
    iterated: list[ast.expr] = []
    for node in ast.walk(context.tree):
        if isinstance(node, (ast.For, ast.comprehension)):
            iterated.append(node.iter)
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        # <x>.extent.intersection(...) and friends: set-method spellings
        # the array type does not provide.
        if isinstance(func, ast.Attribute) and \
                func.attr in ("intersection", "union", "difference") and \
                isinstance(func.value, ast.Attribute) and \
                func.value.attr == "extent":
            context.report(
                node, RULE_ID,
                f"'.extent.{func.attr}(...)' assumes a set-typed extent; "
                f"extents are sorted int arrays — use the &/|/- operators "
                f"or the merge helpers in repro.core.extents")
        # sorted(<x>.extent): the extent is already sorted.
        if isinstance(func, ast.Name) and func.id == "sorted" and \
                node.args and isinstance(node.args[0], ast.Attribute) and \
                node.args[0].attr == "extent":
            context.report(
                node, RULE_ID,
                "'sorted(<x>.extent)' re-sorts a pre-sorted extent array "
                "on every call; use list(<x>.extent) — it is already "
                "in ascending oid order")
    for iter_expr in iterated:
        if _is_set_over_extent(iter_expr):
            context.report(
                iter_expr, RULE_ID,
                "iterating a set built from an extent discards the sorted "
                "order the extent array already guarantees and depends on "
                "hash order; iterate the extent directly")


#: Socket receive-side calls that block until the peer sends (or
#: forever, when no timeout is armed on the socket).
_BLOCKING_SOCKET_METHODS = frozenset({"recv", "recv_into", "recvfrom",
                                      "recvfrom_into", "accept"})


def _arms_timeout(nodes: list[ast.AST]) -> bool:
    """Does this function call ``<sock>.settimeout(<non-None>)``?"""
    for node in nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "settimeout" \
                and node.args:
            arg = node.args[0]
            if not (isinstance(arg, ast.Constant) and arg.value is None):
                return True
    return False


def _check_socket_reads(context: ModuleContext) -> None:
    """Ban unbounded blocking socket reads (``net/`` only).

    A ``.recv``/``.accept`` on a socket with no timeout armed blocks a
    server or client thread forever on a silent peer — the network
    front-end's no-wedged-workers contract (and its graceful shutdown)
    depends on every blocking read being bounded.  The check is
    per-function: a function that calls one of the blocking receive
    methods must also call ``.settimeout(<non-None>)`` before it (on
    any socket — the AST cannot track aliasing, and arming *a* timeout
    in the same function is the pattern
    :func:`repro.net.protocol.recv_exact` canonicalises).
    """
    for node in ast.walk(context.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owned = owned_nodes(node)
        if _arms_timeout(owned):
            continue
        for inner in owned:
            if not isinstance(inner, ast.Call):
                continue
            func = inner.func
            if isinstance(func, ast.Attribute) and \
                    func.attr in _BLOCKING_SOCKET_METHODS:
                context.report(
                    inner, RULE_ID,
                    f"blocking '.{func.attr}()' with no "
                    f"'.settimeout(...)' armed in '{node.name}' can wedge "
                    f"a thread forever on a silent peer; bound every "
                    f"socket read (see repro.net.protocol.recv_exact)")


@rule(RULE_ID,
      "no wall clocks, unseeded randomness, or set-order dependence in "
      "replay-deterministic code; no unbounded socket reads in net/",
      applies=in_dirs("core/", "indexes/", "queries/", "serving/", "net/"))
def check_determinism(context: ModuleContext) -> None:
    _check_banned_calls(context)
    _check_set_order(context)
    _check_extent_order(context)
    if "net/" in "/" + context.relpath.replace("\\", "/"):
        _check_socket_reads(context)
