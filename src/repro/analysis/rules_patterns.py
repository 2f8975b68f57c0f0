"""Pattern rules REP001/REP002/REP005/REP007.

Each of these mechanizes an invariant this repo learned the hard way —
the rationale for every rule is spelled out in ``docs/static_analysis.md``
with a pointer to the PR or bug that motivated it.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .findings import Finding
from .lockgraph import _self_attr
from .registry import Rule, register
from .walker import Project, SourceFile

# --------------------------------------------------------------------- #
# Shared AST helpers
# --------------------------------------------------------------------- #


def _terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a Name/Attribute chain (else None)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _none_defaulted_params(func: ast.AST) -> Set[str]:
    """Parameters of ``func`` whose default value is ``None``."""
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
        return set()
    args = func.args
    names: Set[str] = set()
    positional = list(args.posonlyargs) + list(args.args)
    for arg, default in zip(positional[len(positional) - len(args.defaults):],
                            args.defaults):
        if isinstance(default, ast.Constant) and default.value is None:
            names.add(arg.arg)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if (default is not None and isinstance(default, ast.Constant)
                and default.value is None):
            names.add(arg.arg)
    return names


def _is_optional_annotation(annotation: Optional[ast.AST]) -> bool:
    """``Optional[X]`` / ``X | None`` (the declared may-be-None contract)."""
    if annotation is None:
        return False
    if isinstance(annotation, ast.Subscript):
        return _terminal_name(annotation.value) == "Optional"
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op,
                                                        ast.BitOr):
        for side in (annotation.left, annotation.right):
            if isinstance(side, ast.Constant) and side.value is None:
                return True
    return False


def _same_target(a: ast.AST, b: ast.AST) -> bool:
    """Structural equality for the guard targets we care about:
    a bare name, or a ``self.attr`` chain."""
    if isinstance(a, ast.Name) and isinstance(b, ast.Name):
        return a.id == b.id
    if isinstance(a, ast.Attribute) and isinstance(b, ast.Attribute):
        return a.attr == b.attr and _same_target(a.value, b.value)
    return False


def _none_check_atoms(test: ast.AST) -> List[Tuple[ast.AST, bool]]:
    """Flatten a guard test into ``(target, is_not_none)`` comparisons.

    ``x is not None`` yields ``(x, True)``; ``x is None`` yields
    ``(x, False)``.  ``and``-conjunctions contribute every clause (any one
    establishes its target); other shapes contribute nothing.
    """
    atoms: List[Tuple[ast.AST, bool]] = []
    stack = [test]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            stack.extend(node.values)
            continue
        if (isinstance(node, ast.Compare) and len(node.ops) == 1
                and isinstance(node.comparators[0], ast.Constant)
                and node.comparators[0].value is None):
            if isinstance(node.ops[0], ast.IsNot):
                atoms.append((node.left, True))
            elif isinstance(node.ops[0], ast.Is):
                atoms.append((node.left, False))
    return atoms


def _terminates(stmts: List[ast.stmt]) -> bool:
    """Whether a statement list unconditionally leaves the current block."""
    return bool(stmts) and isinstance(
        stmts[-1], (ast.Raise, ast.Return, ast.Continue, ast.Break))


def _matches(expr: ast.AST, targets: List[ast.AST]) -> bool:
    return any(_same_target(expr, t) for t in targets)


def _assigns_non_none(stmt: ast.stmt, targets: List[ast.AST]) -> bool:
    """``self.x = Thread(...)`` (or another evidently-non-None value)
    establishes non-None for the statements that follow it."""
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return False
    value = stmt.value
    stmt_targets = (stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target])
    if not any(_matches(t, targets) for t in stmt_targets):
        return False
    if isinstance(value, ast.Constant):
        return value.value is not None
    return isinstance(value, (ast.Call, ast.List, ast.Dict, ast.Set,
                              ast.Tuple, ast.ListComp, ast.DictComp,
                              ast.SetComp, ast.JoinedStr))


def _prior_statements_establish(block: List[ast.stmt], child: ast.stmt,
                                targets: List[ast.AST]) -> bool:
    """Earlier statements in ``block`` that prove a target non-None at
    ``child``: an early-exit ``if x is None: raise/return/...`` guard, or
    an assignment of an evidently-non-None value."""
    for stmt in block:
        if stmt is child:
            return False
        if (isinstance(stmt, ast.If) and _terminates(stmt.body)
                and not stmt.orelse):
            for target, is_not_none in _none_check_atoms(stmt.test):
                if not is_not_none and _matches(target, targets):
                    return True
        if _assigns_non_none(stmt, targets):
            return True
    return False


def _guarded_not_none(file: SourceFile, node: ast.AST,
                      targets: List[ast.AST]) -> bool:
    """Whether ``node`` sits where one of ``targets`` is established
    non-None.  Recognized shapes, all short-circuit-sound:

    * ``if x is not None:`` body / ``if x is None:`` orelse (also the
      matching arms of a conditional expression);
    * ``x is not None and x.m()`` / ``x is None or x.m()``;
    * an earlier ``if x is None: raise/return/continue/break`` in the
      same statement block;
    * an earlier ``x = <evidently non-None value>`` in the same block
      (``self._thread = Thread(...)`` then ``self._thread.start()``).
    """
    child = node
    for ancestor in file.ancestors(node):
        if isinstance(ancestor, (ast.If, ast.IfExp)):
            in_body = (child in ancestor.body if isinstance(ancestor, ast.If)
                       else child is ancestor.body)
            in_orelse = (child in ancestor.orelse
                         if isinstance(ancestor, ast.If)
                         else child is ancestor.orelse)
            for target, is_not_none in _none_check_atoms(ancestor.test):
                if _matches(target, targets):
                    if is_not_none and in_body:
                        return True
                    if not is_not_none and in_orelse:
                        return True
        elif isinstance(ancestor, ast.BoolOp) and child in ancestor.values:
            # Short-circuit: in `a and b`, b only evaluates when a held;
            # in `a or b`, b only evaluates when a failed.
            idx = ancestor.values.index(child)
            for prior in ancestor.values[:idx]:
                for target, is_not_none in _none_check_atoms(prior):
                    if not _matches(target, targets):
                        continue
                    if is_not_none and isinstance(ancestor.op, ast.And):
                        return True
                    if not is_not_none and isinstance(ancestor.op, ast.Or):
                        return True
        elif isinstance(child, ast.stmt):
            for _, value in ast.iter_fields(ancestor):
                if (isinstance(value, list) and child in value
                        and _prior_statements_establish(value, child,
                                                        targets)):
                    return True
        child = ancestor
    return False


# --------------------------------------------------------------------- #
# REP001 — falsy collection guard
# --------------------------------------------------------------------- #

#: Left-operand names that read as booleans/flags: ``x or y`` over these is
#: ordinary boolean logic, not a collection default.
_BOOLISH_PREFIXES = ("is_", "has_", "was_", "should_", "can_", "did_",
                     "use_", "allow_", "enable_", "requires_", "stop_on",
                     "stopped_", "need_", "want_")
_BOOLISH_NAMES = {"training", "enabled", "disabled", "verbose", "transient",
                  "record", "ok", "done", "ready", "running", "closed",
                  "stream", "drain", "found", "matched", "valid"}

#: Calls whose argument position is an explicit truthiness context.
_TRUTHINESS_CALLS = {"bool", "any", "all"}


def _is_boolish(name: str) -> bool:
    return name in _BOOLISH_NAMES or name.startswith(_BOOLISH_PREFIXES)


def _in_test_position(file: SourceFile, node: ast.AST) -> bool:
    """Whether the BoolOp's truthiness (not its value) is what's consumed."""
    child = node
    for ancestor in file.ancestors(node):
        if isinstance(ancestor, (ast.BoolOp, ast.UnaryOp)):
            child = ancestor
            continue
        if isinstance(ancestor, (ast.If, ast.While)):
            return child is ancestor.test
        if isinstance(ancestor, ast.IfExp):
            return child is ancestor.test
        if isinstance(ancestor, ast.Assert):
            return child is ancestor.test
        if isinstance(ancestor, ast.comprehension):
            return child in ancestor.ifs
        if isinstance(ancestor, ast.Call):
            name = _terminal_name(ancestor.func)
            return (name in _TRUTHINESS_CALLS
                    and child in ancestor.args)
        return False
    return False


@register
class FalsyCollectionGuard(Rule):
    """``seq or default`` silently replaces a legitimately-empty collection.

    The PR 2 fig03 bug class: ``pool or self._collect(...)`` treated an
    *empty* experience pool — a perfectly valid state — as "no pool", and
    recollected from scratch.  The same trap hits ``0``/``0.0`` timestamps
    and ``""`` strings.  The one benign shape is the None-defaulted
    argument idiom, ``def f(kwargs=None): ... (kwargs or {})`` — there the
    parameter is either None or caller-supplied, and an empty caller value
    means the same thing as None (see ``engine.py`` adapters/runtimes).
    """

    id = "REP001"
    title = "falsy-collection guard (`seq or default`)"
    hint = ("write the intent explicitly: `x if x is not None else default` "
            "(an empty collection/0.0/\"\" is a valid value, not a missing "
            "one); the `param or {}` idiom is exempt only for parameters "
            "defaulted to None")

    def check(self, project: Project) -> Iterable[Finding]:
        for file in project.files:
            for node in ast.walk(file.tree):
                if not (isinstance(node, ast.BoolOp)
                        and isinstance(node.op, ast.Or)):
                    continue
                left = node.values[0]
                name = _terminal_name(left)
                if name is None:  # complex left operand: out of scope
                    continue
                if _is_boolish(name):
                    continue
                if _in_test_position(file, node):
                    continue
                if isinstance(left, ast.Name):
                    func = file.enclosing_function(left)
                    if name in _none_defaulted_params(func):
                        continue  # the benign `(kwargs or {})` idiom
                yield self.finding(
                    file.rel, node.lineno, node.col_offset,
                    f"`{name} or ...` treats a falsy `{name}` (empty "
                    f"collection, 0, 0.0, \"\") as missing — the fig03 "
                    f"empty-pool bug class")


# --------------------------------------------------------------------- #
# REP002 — hot-path power
# --------------------------------------------------------------------- #

#: Directories whose forwards sit on the serving hot path.
_HOT_PATH_MARKERS = ("repro/nn/", "repro/serve/")
#: `x ** k` exponents worth two multiplies instead.
_SMALL_EXPONENTS = {2, 3, 4}


@register
class HotPathPower(Rule):
    """``np.power`` / ``x ** k`` on the model hot path.

    The PR 2 gelu regression: ``np.power(x, 3)`` on float64 arrays is
    ~70x slower elementwise than ``x * x * x``, and gelu sits on every
    transformer MLP forward — the fix alone doubled full-window forward
    throughput.  Inside ``repro/nn`` and ``repro/serve``, every
    ``np.power`` call and small-integer ``**`` on a non-constant base is
    suspect until a noqa says why it is not (e.g. the general-exponent
    autograd op in ``nn/tensor.py``).
    """

    id = "REP002"
    title = "hot-path power (`np.power` / `x ** k`)"
    hint = ("replace with repeated multiplication (`x * x * x`): np.power "
            "on float64 arrays is ~70x slower elementwise (the PR 2 gelu "
            "regression); noqa the general-exponent cases")

    def check(self, project: Project) -> Iterable[Finding]:
        for file in project.files:
            if not any(marker in file.rel for marker in _HOT_PATH_MARKERS):
                continue
            for node in ast.walk(file.tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "power"
                        and isinstance(node.func.value, ast.Name)
                        and node.func.value.id in ("np", "numpy")):
                    yield self.finding(
                        file.rel, node.lineno, node.col_offset,
                        "np.power() on the nn/serve hot path — the gelu "
                        "~70x elementwise regression class")
                elif (isinstance(node, ast.BinOp)
                        and isinstance(node.op, ast.Pow)
                        and isinstance(node.right, ast.Constant)
                        and isinstance(node.right.value, (int, float))
                        and float(node.right.value).is_integer()
                        and int(node.right.value) in _SMALL_EXPONENTS
                        and not isinstance(node.left, ast.Constant)):
                    k = int(node.right.value)
                    yield self.finding(
                        file.rel, node.lineno, node.col_offset,
                        f"`x ** {k}` with a small integer exponent on the "
                        f"nn/serve hot path; prefer "
                        f"{' * '.join(['x'] * k)}")


# --------------------------------------------------------------------- #
# REP007 — wrapper-free step path
# --------------------------------------------------------------------- #

#: The raw-``ndarray`` inference functions, by the path they live under: the
#: layer kernels, the step, its layer loop and the decision entry in
#: ``repro/nn``; the encoder / head kernels and the adapters' inference
#: entries in ``repro/core``.
_RAW_PATH_FUNCTIONS = (
    ("repro/nn/", {"apply", "apply_sequence", "forward_step", "_layers",
                   "last_position_features"}),
    ("repro/llm/model.py", {"forward_step", "last_position_features"}),
    ("repro/core/", {"apply", "apply_sequence"}),
    ("repro/core/adapter.py", {"last_logits", "act", "act_batch", "predict",
                               "predict_batch"}),
)

#: ``repro.nn.tensor``'s free graph ops, as imported bare (``np.stack`` is an
#: attribute call and stays legal).
_GRAPH_OPS = {"stack", "concatenate", "where"}


def _instance_attrs(cls: ast.ClassDef) -> Set[str]:
    """Names assigned as ``self.<name> = ...`` anywhere in ``cls`` — data
    and submodules, as opposed to the methods its body defines."""
    attrs: Set[str] = set()
    for node in ast.walk(cls):
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        attrs.update(attr for attr in map(_self_attr, targets)
                     if attr is not None)
    return attrs


def _loop_targets(func: ast.AST) -> Set[str]:
    """Names bound by ``for`` loops / comprehensions inside ``func``."""
    names: Set[str] = set()
    for node in ast.walk(func):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            names.update(n.id for n in ast.walk(node.target)
                         if isinstance(n, ast.Name))
    return names


@register
class WrapperFreeStep(Rule):
    """The raw-array inference functions stay on raw arrays.

    The serving step and the decision forward run ``ndarray`` in,
    ``ndarray`` out: each layer's ``apply``, each ``forward_step``, the
    backbone's ``last_position_features`` and the adapters' ``act_batch`` /
    ``predict_batch`` perform the graph path's numpy operations without
    building autograd nodes, which took ~250 ``Tensor`` constructions (a
    quarter of the step's time) off every engine step and ~15 % off every
    decision batch.
    The wrapper creeps back in three ways: someone constructs a
    ``Tensor(...)`` inside one of these functions, calls a graph op
    (``stack`` / ``concatenate`` / ``where`` from ``repro.nn``), or calls a
    submodule through ``Module.__call__`` (``self.norm(x)``, ``block(x)``),
    whose ``forward`` wraps its result.  All are flagged; the single
    ``Tensor`` a step hands back to its caller carries a noqa.
    """

    id = "REP007"
    title = ("wrapper-free step path (no Tensor / graph op / Module.__call__ "
             "in apply, forward_step, act_batch, ...)")
    hint = ("stay on raw arrays: call the submodule's .apply(x) / "
            ".forward_step(...) / np.stack(...) and wrap the result once, in "
            "the caller; noqa only the one output wrap of a step")

    def check(self, project: Project) -> Iterable[Finding]:
        for file in project.files:
            raw_names = set().union(*(names for fragment, names in _RAW_PATH_FUNCTIONS
                                      if fragment in file.rel))
            for func in ast.walk(file.tree):
                if not (isinstance(func, ast.FunctionDef)
                        and func.name in raw_names):
                    continue
                cls = file.parent(func)
                attrs = (_instance_attrs(cls)
                         if isinstance(cls, ast.ClassDef) else set())
                loop_names = _loop_targets(func)
                for node in ast.walk(func):
                    if isinstance(node, ast.Call):
                        message = self._violation(node.func, attrs, loop_names)
                        if message is not None:
                            yield self.finding(
                                file.rel, node.lineno, node.col_offset,
                                f"{message} inside `{func.name}` — the "
                                f"autograd wrapper creeping back onto the "
                                f"raw-array step path")

    @staticmethod
    def _violation(callee: ast.AST, attrs: Set[str],
                   loop_names: Set[str]) -> Optional[str]:
        if _terminal_name(callee) == "Tensor":
            return "Tensor(...) constructed"
        if isinstance(callee, ast.Name) and callee.id in _GRAPH_OPS:
            return f"graph op `{callee.id}(...)` called"
        if _self_attr(callee) in attrs:
            return f"submodule `self.{callee.attr}(...)` called through Module.__call__"
        if isinstance(callee, ast.Name) and callee.id in loop_names:
            return f"`{callee.id}(...)` called through Module.__call__"
        return None


# --------------------------------------------------------------------- #
# REP005 — telemetry/fault guard discipline
# --------------------------------------------------------------------- #


def _optional_self_attrs(cls: ast.ClassDef) -> Dict[str, int]:
    """Attributes of ``cls`` declared may-be-None, -> declaration line.

    Three declaration shapes count:

    * a class-body ``attr = None`` (e.g. a ``fault_hook`` class default),
    * ``self.attr: Optional[X] = ...`` (e.g. the session manager's
      ``proposer``),
    * ``self.attr = param`` where the method parameter is annotated
      ``Optional[X]`` / ``X | None`` (e.g. the session manager's
      ``faults`` / ``telemetry``).
    """
    optional: Dict[str, int] = {}
    for stmt in cls.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is None):
            optional[stmt.targets[0].id] = stmt.lineno
    for method in (n for n in cls.body
                   if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))):
        params = {}
        for arg in (list(method.args.posonlyargs) + list(method.args.args)
                    + list(method.args.kwonlyargs)):
            params[arg.arg] = arg.annotation
        for node in ast.walk(method):
            target = None
            value = None
            if isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                is_optional = _is_optional_annotation(node.annotation)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
                is_optional = (isinstance(value, ast.Name)
                               and value.id in params
                               and _is_optional_annotation(params[value.id]))
            else:
                continue
            if (is_optional and isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                optional.setdefault(target.attr, node.lineno)
    return optional


@register
class TelemetryGuard(Rule):
    """Calls through optional instrumentation hooks need an `is None` guard.

    The serve stack's optional-hook contract: with fault injection off (or
    another optional hook absent — the session manager's proposer), every
    instrumented site costs exactly one ``is None`` check — the hook
    attribute is ``None`` and the call is skipped.  An unguarded
    ``self.faults.fire(...)`` either crashes the hook-less path or forces
    the hook to exist and eat the call overhead.  The flight recorder is
    always on and not optional — a standalone session manager makes its
    own — so it needs no guard.  This rule finds method calls through attributes that are
    *declared* optional (``Optional[...]`` annotation, ``attr = None``
    class default, or assignment from an ``Optional`` parameter) outside a
    dominating ``is not None`` branch.
    """

    id = "REP005"
    title = "telemetry-guard check (optional hooks behind `is None` guards)"
    hint = ("wrap the call: `if self.faults is not None: self.faults.m()` "
            "— an optional hook costs one None-check per instrumented "
            "site")

    def check(self, project: Project) -> Iterable[Finding]:
        for file in project.files:
            for cls in (n for n in ast.walk(file.tree)
                        if isinstance(n, ast.ClassDef)):
                optional = _optional_self_attrs(cls)
                if not optional:
                    continue
                yield from self._check_class(file, cls, optional)

    def _check_class(self, file: SourceFile, cls: ast.ClassDef,
                     optional: Dict[str, int]) -> Iterable[Finding]:
        for method in (n for n in cls.body
                       if isinstance(n, (ast.FunctionDef,
                                         ast.AsyncFunctionDef))):
            # Local aliases: `hook = self._hook` makes guards on either
            # name count.
            aliases: Dict[str, str] = {}
            for node in ast.walk(method):
                if (isinstance(node, ast.Assign) and len(node.targets) == 1
                        and isinstance(node.targets[0], ast.Name)
                        and isinstance(node.value, ast.Attribute)
                        and isinstance(node.value.value, ast.Name)
                        and node.value.value.id == "self"
                        and node.value.attr in optional):
                    aliases[node.targets[0].id] = node.value.attr
            for node in ast.walk(method):
                if not isinstance(node, ast.Call):
                    continue
                attr = self._optional_receiver(node.func, optional, aliases)
                if attr is None:
                    continue
                targets: List[ast.AST] = [
                    ast.Attribute(value=ast.Name(id="self"), attr=attr)]
                targets.extend(ast.Name(id=alias)
                               for alias, bound in aliases.items()
                               if bound == attr)
                if _guarded_not_none(file, node, targets):
                    continue
                yield self.finding(
                    file.rel, node.lineno, node.col_offset,
                    f"call through optional hook `{attr}` outside an "
                    f"`is not None` guard (declared optional at "
                    f"{file.rel}:{optional[attr]})")

    @staticmethod
    def _optional_receiver(func: ast.AST, optional: Dict[str, int],
                           aliases: Dict[str, str]) -> Optional[str]:
        """The optional attr a call goes through: ``self.X(...)``,
        ``self.X.m(...)``, ``alias(...)`` or ``alias.m(...)``."""
        # self.X(...) — calling the hook itself (e.g. fault_hook("prefill.rows"))
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)):
            if func.value.id == "self" and func.attr in optional:
                return func.attr
            if func.value.id in aliases:  # alias.m(...)
                return aliases[func.value.id]
        # self.X.m(...) — method call on the hook
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"
                and func.value.attr in optional):
            return func.value.attr
        # alias(...) — calling an aliased hook directly
        if isinstance(func, ast.Name) and func.id in aliases:
            return aliases[func.id]
        return None
