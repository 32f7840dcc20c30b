"""The repo-specific rules: one class per ``RPR…`` code.

Every rule protects a *runtime* guarantee of the sweep stack; the
docstring of each names it.  Rules are pure functions of one file's
:class:`~repro.devtools.lint.core.ModuleContext` — no imports are
executed, no cross-file graph is built — so the linter stays fast and
runs identically on a checkout and in CI.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from .core import Finding, ModuleContext, Rule, register

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def _attr_chain(node: ast.AST) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; ``None`` for non-name chains."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _self_attr(node: ast.AST) -> str | None:
    """The attribute name when ``node`` is ``self.<attr>``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _call_name(node: ast.Call) -> str | None:
    """Last segment of the called name (``engine.analyze_batch`` → that)."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _class_methods(cls: ast.ClassDef) -> set[str]:
    names: set[str] = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _base_names(cls: ast.ClassDef) -> list[str]:
    names = []
    for base in cls.bases:
        chain = _attr_chain(base)
        if chain:
            names.append(chain[-1])
    return names


class _ClassTable:
    """In-file class index with a transitive in-file ancestry walk."""

    def __init__(self, tree: ast.Module) -> None:
        self.classes: dict[str, ast.ClassDef] = {
            node.name: node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        }

    def ancestry(self, cls: ast.ClassDef) -> tuple[set[str], set[str]]:
        """``(all base names reachable, methods defined along the chain)``."""
        seen_bases: set[str] = set()
        methods = _class_methods(cls)
        stack = _base_names(cls)
        while stack:
            base = stack.pop()
            if base in seen_bases:
                continue
            seen_bases.add(base)
            parent = self.classes.get(base)
            if parent is not None:
                methods |= _class_methods(parent)
                stack.extend(_base_names(parent))
        return seen_bases, methods


def _local_scope_defs(func: ast.AST) -> dict[str, str]:
    """Names bound to lambdas / defs / classes in ``func``'s own scope.

    Nested function and class bodies open new scopes and are not
    descended into (their internals are invisible at the call site).
    """
    found: dict[str, str] = {}

    def scan(stmts: Iterable[ast.stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[stmt.name] = "nested function"
            elif isinstance(stmt, ast.ClassDef):
                found[stmt.name] = "locally-defined class"
            elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Lambda):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        found[target.id] = "lambda"
            elif isinstance(stmt, (ast.If, ast.For, ast.While, ast.With, ast.Try)):
                for field in ("body", "orelse", "finalbody", "handlers"):
                    block = getattr(stmt, field, None)
                    if not block:
                        continue
                    if field == "handlers":
                        for handler in block:
                            scan(handler.body)
                    else:
                        scan(block)

    scan(getattr(func, "body", []))
    return found


# ----------------------------------------------------------------------
# RPR001 — lock discipline
# ----------------------------------------------------------------------
_GUARDED_BY_RE = re.compile(r"guarded-by:\s*(?:self\.)?([A-Za-z_][A-Za-z0-9_]*)")
_REQUIRES_RE = re.compile(r"(?:requires-lock|guarded-by):\s*(?:self\.)?([A-Za-z_][A-Za-z0-9_]*)")


@register
class LockDisciplineRule(Rule):
    """Guarded attributes may only be touched while holding their lock.

    Protects: the thread-safety of shared mutable broker / cache state
    (``SweepQueue`` shard leasing, the engine's factorization cache) on
    which the executor layer's exactly-once fold rests.

    Declare the guard on the ``__init__`` assignment::

        self._sweeps = OrderedDict()  # guarded-by: _lock

    Every later read or write of ``self._sweeps`` anywhere in the class
    must then sit lexically inside ``with self._lock:``, or inside a
    method annotated ``# requires-lock: _lock`` (meaning: every caller
    already holds the lock).  ``__init__`` itself is exempt — objects
    under construction are single-threaded.
    """

    code = "RPR001"
    name = "lock-discipline"
    description = "guarded-by attributes accessed only under their lock"

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for cls in (n for n in ast.walk(context.tree) if isinstance(n, ast.ClassDef)):
            guarded = self._guarded_attrs(context, cls)
            if not guarded:
                continue
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name == "__init__":
                    continue
                held = set(
                    _REQUIRES_RE.findall(context.comment_on(method.lineno))
                    + _REQUIRES_RE.findall(context.comment_on(method.lineno - 1))
                )
                for node in ast.walk(method):
                    attr = _self_attr(node)
                    if attr is None or attr not in guarded:
                        continue
                    lock = guarded[attr]
                    if lock in held or self._under_lock(context, node, lock):
                        continue
                    yield self.finding(
                        context,
                        node,
                        f"self.{attr} is '# guarded-by: {lock}' but accessed outside "
                        f"'with self.{lock}:'; take the lock, or annotate the method "
                        f"'# requires-lock: {lock}' when every caller already holds it",
                    )

    @staticmethod
    def _guarded_attrs(context: ModuleContext, cls: ast.ClassDef) -> dict[str, str]:
        init = next(
            (
                stmt
                for stmt in cls.body
                if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__"
            ),
            None,
        )
        guarded: dict[str, str] = {}
        if init is None:
            return guarded
        for stmt in ast.walk(init):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                match = context.declaration_comment(stmt, _GUARDED_BY_RE)
                if match is None:
                    continue
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        guarded[attr] = match.group(1)
        return guarded

    @staticmethod
    def _under_lock(context: ModuleContext, node: ast.AST, lock: str) -> bool:
        for ancestor in context.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return False  # stop at the enclosing scope boundary
            if isinstance(ancestor, ast.With):
                for item in ancestor.items:
                    if _self_attr(item.context_expr) == lock:
                        return True
        return False


# ----------------------------------------------------------------------
# RPR002 — picklability of shard payloads
# ----------------------------------------------------------------------
_ANALYZE_ENTRY_POINTS = {
    "analyze_batch",
    "analyze_pad_batch",
    "analyze_scenario_stream",
    "analyze_mega_sweep",
    "analyze_statistical",
}
_SHARDED_EXECUTOR_NAMES = {"processes", "hybrid", "remote"}
#: Positional slot of the scenario source per entry point (after self).
_SOURCE_POSITIONS = {"analyze_scenario_stream": 1}


@register
class PicklabilityRule(Rule):
    """Closures must not flow into sweeps that ship shards to processes.

    Protects: the process-sharded / remote payload contract — the
    scenario source, the compiled grid and every sink are pickled once
    and rebuilt inside spawned or remote worker processes (forked shards
    are held to the same contract by a pickle probe), so lambdas, nested
    functions and locally-defined classes cannot ride along.

    Flags a lambda / nested function / local class passed as the
    ``source`` / ``scenario_source`` / ``sinks`` of an ``analyze_*``
    entry point when either

    * the call names a sharded executor (``executor="processes"`` /
      ``"hybrid"`` / ``"remote"``, a ``HybridExecutor`` /
      ``RemoteExecutor`` instance, or ``make_executor`` with one of those
      names) — a ``HybridExecutor`` whose shard count is a literal 1
      runs in-process and never pickles, so it does not count — or
    * the file is library code (non-test) — production sources must be
      module-level picklable classes such as ``MatrixScenarioSource``,
      whatever executor today's caller picks.
    """

    code = "RPR002"
    name = "picklability"
    description = "no closures in analyze_* sources/sinks bound for process shards"

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for call in (n for n in ast.walk(context.tree) if isinstance(n, ast.Call)):
            name = _call_name(call)
            if name not in _ANALYZE_ENTRY_POINTS:
                continue
            scope = self._enclosing_function(context, call)
            local_defs = _local_scope_defs(scope) if scope is not None else {}
            must_pickle = not context.is_test_file or self._names_sharded_executor(
                call, local_defs, scope
            )
            if not must_pickle:
                continue
            for role, value in self._payload_values(name, call):
                for offender, kind in self._unpicklable(value, local_defs):
                    yield self.finding(
                        context,
                        offender,
                        f"{kind} flows into {name}({role}=...); process/remote shards "
                        "pickle the payload into worker processes — use a module-level "
                        "picklable class (e.g. MatrixScenarioSource, "
                        "CrossProductScenarioSource) instead",
                    )

    @staticmethod
    def _enclosing_function(context: ModuleContext, node: ast.AST):
        for ancestor in context.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    @staticmethod
    def _payload_values(entry: str, call: ast.Call) -> Iterator[tuple[str, ast.expr]]:
        position = _SOURCE_POSITIONS.get(entry)
        if position is not None and len(call.args) > position:
            yield "scenario_source", call.args[position]
        for keyword in call.keywords:
            if keyword.arg in ("source", "scenario_source", "sinks"):
                yield keyword.arg, keyword.value

    def _names_sharded_executor(
        self, call: ast.Call, local_defs: dict[str, str], scope: ast.AST | None
    ) -> bool:
        executor = next((k.value for k in call.keywords if k.arg == "executor"), None)
        if executor is None:
            return False
        return self._is_sharded_executor(executor, scope)

    def _is_sharded_executor(self, value: ast.expr, scope: ast.AST | None) -> bool:
        if isinstance(value, ast.Constant):
            return value.value in _SHARDED_EXECUTOR_NAMES
        if isinstance(value, ast.Call):
            name = _call_name(value)
            if name == "HybridExecutor":
                shards = value.args[0] if value.args else next(
                    (k.value for k in value.keywords if k.arg == "shard_workers"), None
                )
                return not (isinstance(shards, ast.Constant) and shards.value == 1)
            if name == "RemoteExecutor":
                return True
            if name == "make_executor" and value.args:
                first = value.args[0]
                return isinstance(first, ast.Constant) and first.value in _SHARDED_EXECUTOR_NAMES
        if isinstance(value, ast.Name) and scope is not None:
            # Single-assignment resolution inside the enclosing function.
            for stmt in ast.walk(scope):
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == value.id for t in stmt.targets
                ):
                    return self._is_sharded_executor(stmt.value, None)
        return False

    @staticmethod
    def _unpicklable(
        value: ast.expr, local_defs: dict[str, str]
    ) -> Iterator[tuple[ast.expr, str]]:
        candidates: list[ast.expr] = (
            list(value.elts) if isinstance(value, (ast.List, ast.Tuple)) else [value]
        )
        for candidate in candidates:
            if isinstance(candidate, ast.Lambda):
                yield candidate, "a lambda"
            elif isinstance(candidate, ast.Name) and candidate.id in local_defs:
                yield candidate, f"{local_defs[candidate.id]} '{candidate.id}'"
            elif isinstance(candidate, ast.Call):
                name = _call_name(candidate)
                if name in local_defs and local_defs[name] == "locally-defined class":
                    yield candidate, f"locally-defined class '{name}'"


# ----------------------------------------------------------------------
# RPR003 — sink protocol conformance
# ----------------------------------------------------------------------
_SINK_BASES = {"IRDropSink", "_ScalarStreamSink"}
_SINK_SURFACE = ("bind", "consume", "result")
#: Methods the IRDropSink base class itself provides to every subclass.
_SINK_BASE_PROVIDES = {"bind", "consume", "consume_drop_rows"}


@register
class SinkConformanceRule(Rule):
    """Sinks must implement their whole contract, not a working subset.

    Protects: the ``MergeableSink`` snapshot/merge protocol (a sink with
    ``snapshot`` but no ``merge`` passes serial sweeps and fails the
    first process-sharded one) and the ``ScenarioSink`` surface
    (``bind`` / ``consume`` / ``result``) every executor drives.

    * Any class defining exactly one of ``snapshot`` / ``merge`` is
      flagged — the pair is the unit of shard exactness.
    * Any public ``IRDropSink`` (or ``_ScalarStreamSink``) subclass must
      end up with ``bind``, ``consume`` and ``result`` — own, inherited
      in-file, or provided by the base.  Private (``_``-prefixed)
      intermediates are exempt.
    """

    code = "RPR003"
    name = "sink-conformance"
    description = "snapshot/merge defined as a pair; sink surface complete"

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        table = _ClassTable(context.tree)
        for cls in table.classes.values():
            methods = _class_methods(cls)
            if ("snapshot" in methods) != ("merge" in methods):
                present, missing = (
                    ("snapshot", "merge") if "snapshot" in methods else ("merge", "snapshot")
                )
                yield self.finding(
                    context,
                    cls,
                    f"class {cls.name} defines {present}() without {missing}(); the "
                    "MergeableSink contract is the pair — shard folds call both",
                )
            bases, chain_methods = table.ancestry(cls)
            if cls.name in _SINK_BASES or cls.name.startswith("_"):
                continue
            if not (bases & _SINK_BASES):
                continue
            available = chain_methods | _SINK_BASE_PROVIDES
            missing_surface = [m for m in _SINK_SURFACE if m not in available]
            if missing_surface:
                yield self.finding(
                    context,
                    cls,
                    f"sink class {cls.name} is missing {missing_surface} from the "
                    "ScenarioSink surface (bind/consume/result); every executor "
                    "drives all three",
                )


# ----------------------------------------------------------------------
# RPR004 — determinism in analysis fold paths
# ----------------------------------------------------------------------
_GLOBAL_RANDOM_FUNCS = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "gauss",
    "normalvariate",
    "betavariate",
    "vonmisesvariate",
    "seed",
}


@register
class DeterminismRule(Rule):
    """No wall clock, global RNG or set-order iteration in analysis code.

    Protects: bitwise reproducibility of sweep results.  Floating-point
    folds are order- and input-sensitive, so anything feeding them must
    be a pure function of the scenario range: no ``time.time()`` /
    ``datetime.now()`` stamps, no unseeded ``np.random`` / stdlib
    ``random`` global state, and no iteration over ``set`` literals or
    ``set()`` constructors (hash-seed-dependent order).  Scoped to
    ``src/repro/analysis/`` — the engine, sinks, executors, remote
    broker and solver layers.  ``time.monotonic`` / ``perf_counter``
    (intervals) and seeded ``np.random.default_rng(seed)`` stay legal.
    """

    code = "RPR004"
    name = "determinism"
    description = "no time.time/now, unseeded RNG, or set-order iteration in analysis"

    def applies_to(self, context: ModuleContext) -> bool:
        return "repro/analysis/" in context.posix_path

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(context.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(context, node)
            elif isinstance(node, ast.For):
                yield from self._check_iteration(context, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._check_iteration(context, generator.iter)

    def _check_call(self, context: ModuleContext, node: ast.Call) -> Iterator[Finding]:
        chain = _attr_chain(node.func)
        if chain is None:
            return
        if chain == ["time", "time"]:
            yield self.finding(
                context,
                node,
                "time.time() in analysis code; use time.monotonic()/time.perf_counter() "
                "for intervals and keep wall-clock stamps out of folded results",
            )
        elif (
            len(chain) >= 2
            and chain[-1] in ("now", "utcnow", "today")
            and chain[0] in ("datetime", "date")
        ):
            yield self.finding(
                context,
                node,
                f"{'.'.join(chain)}() in analysis code; wall-clock values are "
                "nondeterministic — pass timestamps in from the caller if needed",
            )
        elif len(chain) == 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
            if chain[2] == "default_rng":
                if not node.args and not node.keywords:
                    yield self.finding(
                        context,
                        node,
                        "np.random.default_rng() without a seed; analysis sampling "
                        "must be a pure function of its inputs — pass an explicit seed",
                    )
            else:
                yield self.finding(
                    context,
                    node,
                    f"np.random.{chain[2]}() uses the unseeded global NumPy RNG; "
                    "use np.random.default_rng(seed) and thread the generator through",
                )
        elif chain[0] == "random" and len(chain) == 2:
            if chain[1] in _GLOBAL_RANDOM_FUNCS:
                yield self.finding(
                    context,
                    node,
                    f"random.{chain[1]}() uses the process-global stdlib RNG; "
                    "use a seeded np.random.default_rng(seed) instead",
                )
            elif chain[1] == "Random" and not node.args and not node.keywords:
                yield self.finding(
                    context,
                    node,
                    "random.Random() without a seed is nondeterministic; pass a seed",
                )

    def _check_iteration(self, context: ModuleContext, iter_node: ast.expr) -> Iterator[Finding]:
        is_set = isinstance(iter_node, (ast.Set, ast.SetComp))
        if isinstance(iter_node, ast.Call):
            chain = _attr_chain(iter_node.func)
            is_set = chain is not None and chain[-1] in ("set", "frozenset")
        if is_set:
            yield self.finding(
                context,
                iter_node,
                "iteration over a set in analysis code has hash-seed-dependent order; "
                "sort it (sorted(...)) before anything order-sensitive folds it",
            )


# ----------------------------------------------------------------------
# RPR006 — environment-variable registry
# ----------------------------------------------------------------------
@register
class EnvRegistryRule(Rule):
    """Every environment read must use a key from ``KNOWN_ENV_VARS``.

    Protects: the documentation contract of the ``REPRO_*`` knobs.  A
    sweep whose behaviour silently depends on an undocumented variable
    is unreproducible by anyone who doesn't know the incantation, so
    :data:`repro.envvars.KNOWN_ENV_VARS` is the single source of truth
    and this rule keeps it exhaustive:

    * ``os.environ[...]`` / ``os.environ.get`` / ``os.getenv`` with a
      resolvable key (string literal, or an in-file module constant)
      must name a registered key;
    * module-level ``*_ENV = "..."`` constants must hold registered
      keys (reads through an *imported* ``*_ENV`` constant are trusted —
      the defining module is checked where the constant lives);
    * keys the linter cannot resolve statically are flagged as such.
    """

    code = "RPR006"
    name = "env-registry"
    description = "os.environ keys must be declared in repro.envvars.KNOWN_ENV_VARS"

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        from repro.envvars import KNOWN_ENV_VARS

        constants = self._module_constants(context.tree)
        for name, (value, node) in constants.items():
            if name.endswith("_ENV") and value not in KNOWN_ENV_VARS:
                yield self.finding(
                    context,
                    node,
                    f"env constant {name} = {value!r} is not declared in "
                    "repro.envvars.KNOWN_ENV_VARS; register it with a one-line "
                    "description",
                )
        for node, key_expr in self._env_reads(context.tree):
            yield from self._check_key(context, node, key_expr, constants, KNOWN_ENV_VARS)

    @staticmethod
    def _module_constants(tree: ast.Module) -> dict[str, tuple[str, ast.stmt]]:
        constants: dict[str, tuple[str, ast.stmt]] = {}
        for stmt in tree.body:
            target: ast.expr | None = None
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target, value = stmt.targets[0], stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                target, value = stmt.target, stmt.value
            if (
                isinstance(target, ast.Name)
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                constants[target.id] = (value.value, stmt)
        return constants

    @staticmethod
    def _env_reads(tree: ast.Module) -> Iterator[tuple[ast.AST, ast.expr]]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                chain = _attr_chain(node.func)
                if chain in (
                    ["os", "getenv"],
                    ["os", "environ", "get"],
                    ["os", "environ", "setdefault"],
                    ["os", "environ", "pop"],
                ):
                    if node.args:
                        yield node, node.args[0]
            elif isinstance(node, ast.Subscript):
                if _attr_chain(node.value) == ["os", "environ"]:
                    yield node, node.slice

    def _check_key(
        self,
        context: ModuleContext,
        node: ast.AST,
        key_expr: ast.expr,
        constants: dict[str, tuple[str, ast.stmt]],
        known: dict[str, str],
    ) -> Iterator[Finding]:
        key: str | None = None
        if isinstance(key_expr, ast.Constant) and isinstance(key_expr.value, str):
            key = key_expr.value
        elif isinstance(key_expr, ast.Name):
            if key_expr.id in constants:
                key = constants[key_expr.id][0]
            elif key_expr.id.endswith("_ENV"):
                return  # imported *_ENV constant; checked at its definition
        if key is None:
            yield self.finding(
                context,
                node,
                "environment key is not statically resolvable; read it through a "
                "module-level *_ENV string constant so the registry check can see it",
            )
        elif key not in known:
            yield self.finding(
                context,
                node,
                f"environment variable {key!r} is not declared in "
                "repro.envvars.KNOWN_ENV_VARS; register it with a one-line description",
            )


# ----------------------------------------------------------------------
# RPR007 — module-level mutable state
# ----------------------------------------------------------------------
_MUTABLE_CALLS = {"dict", "list", "set", "OrderedDict", "defaultdict", "deque", "Counter"}
_CONSTANT_NAME_RE = re.compile(r"^_?_?[A-Z][A-Z0-9_]*$")


@register
class MutableGlobalRule(Rule):
    """No lowercase module-level mutable containers in library code.

    Protects: process-shard equivalence.  A worker process starts from a
    fresh import, so any behaviour accumulated in a module-level dict or
    list in the parent silently diverges from the shards.  Deliberate
    module state (registries, per-worker context like
    ``_WORKER_STATE``) is spelled ``UPPER_CASE`` to mark the contract;
    anything lowercase is flagged.  Tests are out of scope.
    """

    code = "RPR007"
    name = "mutable-global"
    description = "module-level mutable containers must be UPPER_CASE contracts"

    def applies_to(self, context: ModuleContext) -> bool:
        return not context.is_test_file

    def check(self, context: ModuleContext) -> Iterator[Finding]:
        for stmt in context.tree.body:
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
                value = stmt.value
            else:
                continue
            if not self._is_mutable_literal(value):
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                name = target.id
                if name.startswith("__") and name.endswith("__"):
                    continue  # dunders (__all__) have their own conventions
                if _CONSTANT_NAME_RE.match(name):
                    continue
                yield self.finding(
                    context,
                    stmt,
                    f"module-level mutable container {name!r}; worker processes "
                    "re-import modules, so shared mutable globals break shard "
                    "equivalence — make it function-local, or an UPPER_CASE "
                    "constant if the module state is deliberate",
                )

    @staticmethod
    def _is_mutable_literal(value: ast.expr) -> bool:
        if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(value, ast.Call):
            name = _call_name(value)
            return name in _MUTABLE_CALLS and not value.args and not value.keywords
        return False
