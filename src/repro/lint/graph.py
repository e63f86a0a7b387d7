"""Phase one of iolint v2: project-wide symbol table and call graph.

The file-local rules (IOL001-IOL006) see one module at a time; the
whole-program rules (IOL007-IOL010) need to know *who calls whom across
the project* -- entropy reachable from a digest scope three modules
away, a worker function imported into the experiment driver, an
``engine=`` string that never meets the registry.  This module builds
that view in two steps:

1. **Extraction** (:func:`summarize_module`): one pass over a parsed
   module produces a :class:`ModuleSummary` -- imports, definitions,
   per-function call sites, entropy sites, global reads/writes and the
   ``engine=`` observations the rules consume.  Summaries are pure
   picklable data, which is what makes the engine's content-hash cache
   and ``--jobs`` fan-out possible: a cached or worker-computed summary
   is indistinguishable from a locally computed one.

2. **Linking** (:meth:`CallGraph.build`): the summaries are joined into
   a :class:`CallGraph` that resolves call sites to fully-qualified
   project functions -- following ``import``/``from`` aliases and
   re-export chains, binding ``self.method()`` through the enclosing
   class and its project base classes, and binding ``obj.method()``
   when ``obj``'s class is known from a constructor assignment or
   annotation (the scheduler/engine classes the determinism rules care
   about).

Resolution is deliberately conservative: a call the linker cannot
attribute stays unresolved and is *counted* (:meth:`CallGraph.stats`),
so the test suite can assert the graph resolves >= 95% of intra-project
calls instead of trusting it blindly.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.config import LintConfig
from repro.lint.provenance import Hazard, analyze_function

#: How a call site names its callee, before linking.
#:
#: ``("name", f)``            -- bare name call ``f(...)``
#: ``("dotted", "a.b.f")``    -- attribute chain rooted at a name
#: ``("self", m)``            -- ``self.m(...)`` / ``cls.m(...)``
#: ``("var", "Cls", m)``      -- method on a variable of locally known
#:                               class ``Cls`` (constructor/annotation)
#: ``("lambda", "")``         -- inline lambda
#: ``("opaque", text)``       -- anything else (subscripts, call results)
CalleeRef = Tuple[str, ...]


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    lineno: int
    col: int
    ref: CalleeRef
    text: str


@dataclass(frozen=True)
class EntropySite:
    """One ambient-entropy call inside a function body (IOL007 input)."""

    lineno: int
    col: int
    description: str


@dataclass(frozen=True)
class EngineCompare:
    """A comparison of an engine value against a string literal."""

    lineno: int
    col: int
    literal: str
    #: ``"param"`` -- the raw ``engine`` parameter; ``"resolved"`` -- the
    #: result of ``resolve_engine(...)``; ``"other"`` -- an engine-named
    #: attribute or variable.
    kind: str


@dataclass(frozen=True)
class RunnerSubmit:
    """A worker function handed to a parallel-runner ``map``/``starmap``."""

    lineno: int
    col: int
    method: str
    receiver: str
    fn_ref: CalleeRef
    fn_text: str


@dataclass
class FunctionSummary:
    """Everything the program rules need to know about one function."""

    qualname: str  #: dotted local path, e.g. ``Cls.method`` or ``outer.inner``
    name: str
    lineno: int
    end_lineno: int
    class_name: Optional[str] = None
    parent_function: Optional[str] = None  #: enclosing function qualname
    params: Tuple[str, ...] = ()
    calls: List[CallSite] = field(default_factory=list)
    entropy_sites: List[EntropySite] = field(default_factory=list)
    #: Names read but not bound locally (module globals or closure cells).
    reads_globals: Tuple[str, ...] = ()
    #: Of those, names bound in an enclosing *function* scope.
    free_reads: Tuple[str, ...] = ()
    #: Module-level names this function rebinds or mutates in place.
    writes_globals: Tuple[str, ...] = ()
    engine_compares: List[EngineCompare] = field(default_factory=list)
    #: ``engine=<string literal>`` keyword arguments passed to calls.
    engine_kwarg_literals: List[Tuple[int, int, str]] = field(default_factory=list)
    #: Whether the ``engine`` parameter is passed on to some call.
    engine_forwarded: bool = False
    runner_submits: List[RunnerSubmit] = field(default_factory=list)
    #: IOL008 lattice results, precomputed at extraction so they cache
    #: with the summary (only populated for top-level functions in
    #: overflow scope; the lattice descends into nested defs itself).
    overflow_hazards: List[Hazard] = field(default_factory=list)
    overflow_guarded: bool = False

    @property
    def is_nested(self) -> bool:
        return self.parent_function is not None

    @property
    def is_public(self) -> bool:
        return not self.name.startswith("_")


@dataclass
class ClassSummary:
    """One class definition: bases (as written) and its method table."""

    name: str
    lineno: int
    bases: Tuple[str, ...] = ()
    #: method name -> local function qualname
    methods: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleSummary:
    """Pure-data digest of one module; the unit of caching and linking."""

    module: str
    rel_path: str
    #: ``import a.b as c`` -> {"c": "a.b"}; ``import a.b`` -> {"a": "a"}
    module_aliases: Dict[str, str] = field(default_factory=dict)
    #: ``from m import x as y`` -> {"y": ("m", "x")} (module resolved
    #: absolute, including relative-import expansion)
    from_imports: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: module-level def name -> "func" | "class"
    defs: Dict[str, str] = field(default_factory=dict)
    functions: List[FunctionSummary] = field(default_factory=list)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: module-level names bound to mutable containers
    mutable_globals: Tuple[str, ...] = ()
    #: module-level names whose value is a static literal (str/int or
    #: tuple/list of those) -- feeds the IOL010 ENGINES registry lookup
    constants: Dict[str, object] = field(default_factory=dict)
    #: module-level aliases of local functions, e.g.
    #: ``cached = register_cache("k", lru_cache()(f))`` -> {"cached": "f"}
    function_aliases: Dict[str, str] = field(default_factory=dict)
    imports_numpy: bool = False


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a repo-relative posix path."""
    path = rel_path
    if path.startswith("src/"):
        path = path[len("src/") :]
    if path.endswith(".py"):
        path = path[: -len(".py")]
    if path.endswith("/__init__"):
        path = path[: -len("/__init__")]
    return path.replace("/", ".")


# -- extraction helpers ------------------------------------------------------


def _dotted_text(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a Name, else None."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


_ENTROPY_MODULES = {"random", "secrets"}
_ENTROPY_ATTRS: Dict[str, Set[str]] = {
    "time": {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "clock",
    },
    "os": {"urandom", "getrandom"},
    "uuid": {"uuid1", "uuid4"},
    "datetime": {"now", "utcnow", "today"},
}

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)
_MUTABLE_FACTORIES = {
    "list",
    "dict",
    "set",
    "defaultdict",
    "OrderedDict",
    "Counter",
    "deque",
    "bytearray",
}

#: Method names that mutate their receiver in place.
_MUTATOR_METHODS = {
    "append",
    "extend",
    "insert",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "remove",
    "discard",
    "clear",
    "appendleft",
    "extendleft",
}


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in _MUTABLE_FACTORIES
    return False


def _literal_value(node: ast.AST) -> Optional[object]:
    """Static value of a str/int literal or a tuple/list of those."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, SyntaxError, TypeError):
        return None
    if isinstance(value, (str, int)):
        return value
    if isinstance(value, (tuple, list)) and all(
        isinstance(item, (str, int)) for item in value
    ):
        return tuple(value)
    return None


def _arg_names(args: ast.arguments) -> Tuple[str, ...]:
    collected = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            collected.append(extra.arg)
    return tuple(collected)


def _innermost_function_name(node: ast.AST) -> Optional[str]:
    """Deepest ``Name`` argument inside nested calls, e.g. the ``f`` in
    ``register_cache("key", lru_cache(maxsize=8)(f))``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        for arg in node.args:
            found = _innermost_function_name(arg)
            if found is not None:
                return found
    return None


class _FunctionExtractor(ast.NodeVisitor):
    """Collects one function's call sites, reads, writes and rule inputs.

    Does not descend into nested function/class definitions -- those are
    summarized separately (the module walker drives the recursion and
    supplies the enclosing-scope name sets).
    """

    def __init__(
        self,
        summary: FunctionSummary,
        module_aliases: Dict[str, str],
        from_imports: Dict[str, Tuple[str, str]],
        enclosing_locals: Set[str],
        config: LintConfig,
    ) -> None:
        self.summary = summary
        self.module_aliases = module_aliases
        self.from_imports = from_imports
        self.enclosing_locals = enclosing_locals
        self.config = config
        self.local_names: Set[str] = set(summary.params)
        self.reads: Set[str] = set()
        self.writes: Set[str] = set()
        self.global_decls: Set[str] = set()
        #: local variable -> dotted class text from ``x = Cls(...)``,
        #: ``x: Cls`` or ``x: Cls = ...``
        self.var_types: Dict[str, str] = {}
        self._root = True

    # -- scope plumbing ------------------------------------------------------

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            if self._root:
                self._root = False
                super().generic_visit(node)
            # nested definitions are separate summaries; record the
            # binding so reads of the name count as local
            else:
                self.local_names.add(node.name)
            return
        super().generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        # lambda bodies stay part of this function's read set, but their
        # parameters are local to the lambda
        for param in _arg_names(node.args):
            self.local_names.add(param)
        self.generic_visit(node)

    def visit_Global(self, node: ast.Global) -> None:
        self.global_decls.update(node.names)

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.reads.add(node.id)
        else:
            if node.id in self.global_decls:
                self.writes.add(node.id)
            self.local_names.add(node.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._record_var_types(node.targets, node.value)
        self._record_subscript_writes(node.targets)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            annotated = _dotted_text(node.annotation) or ""
            if annotated and annotated[0].isalpha():
                self.var_types[node.target.id] = annotated
        self._record_subscript_writes([node.target])
        self.generic_visit(node)

    def _record_var_types(
        self, targets: Sequence[ast.expr], value: ast.expr
    ) -> None:
        ctor = value
        if isinstance(ctor, ast.IfExp):  # x = Cls(...) if cond else None
            ctor = ctor.body
        if not isinstance(ctor, ast.Call):
            return
        dotted = _dotted_text(ctor.func)
        if dotted is None:
            return
        last = dotted.rsplit(".", 1)[-1]
        if not (last[:1].isupper()):
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self.var_types[target.id] = dotted

    def _record_subscript_writes(self, targets: Sequence[ast.expr]) -> None:
        for target in targets:
            if isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name
            ):
                name = target.value.id
                if name not in self.local_names and name not in self.summary.params:
                    self.writes.add(name)

    def visit_For(self, node: ast.For) -> None:
        for sub in ast.walk(node.target):
            if isinstance(sub, ast.Name):
                self.local_names.add(sub.id)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        for sub in ast.walk(node.target):
            if isinstance(sub, ast.Name):
                self.local_names.add(sub.id)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        self._record_engine_compare(node)
        self.generic_visit(node)

    # -- call sites ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        ref, text = self._callee_ref(node.func)
        self.summary.calls.append(
            CallSite(lineno=node.lineno, col=node.col_offset, ref=ref, text=text)
        )
        self._record_entropy(node)
        self._record_mutation(node)
        self._record_engine_kwargs(node)
        self._record_runner_submit(node, ref)
        self.generic_visit(node)

    def _callee_ref(self, func: ast.expr) -> Tuple[CalleeRef, str]:
        if isinstance(func, ast.Name):
            return ("name", func.id), func.id
        if isinstance(func, ast.Lambda):
            return ("lambda", ""), "<lambda>"
        dotted = _dotted_text(func)
        if dotted is not None:
            root, _, rest = dotted.partition(".")
            if root in ("self", "cls") and rest and "." not in rest:
                return ("self", rest), dotted
            if root in self.var_types and rest and "." not in rest:
                return ("var", self.var_types[root], rest), dotted
            return ("dotted", dotted), dotted
        if isinstance(func, ast.Attribute):
            return ("opaque", func.attr), f"<expr>.{func.attr}"
        return ("opaque", ""), "<expr>"

    # -- rule-specific observations ------------------------------------------

    def _record_entropy(self, node: ast.Call) -> None:
        dotted = _dotted_text(node.func)
        if dotted is not None and "." in dotted:
            parts = dotted.split(".")
            root_alias, attr = parts[0], parts[-1]
            module = self.module_aliases.get(root_alias)
            if module is None and root_alias in self.from_imports:
                from_module, original = self.from_imports[root_alias]
                if from_module == "datetime" and original in {"datetime", "date"}:
                    module = "datetime"
            if module is not None:
                module_root = module.split(".")[0]
                if module_root in _ENTROPY_MODULES:
                    self._add_entropy(node, f"{module_root}.{attr}")
                    return
                if module_root == "numpy" and parts[1:2] == ["random"]:
                    self._add_entropy(node, "numpy.random")
                    return
                banned = _ENTROPY_ATTRS.get(module_root)
                if banned and attr in banned:
                    self._add_entropy(node, f"{module_root}.{attr}")
                    return
        elif isinstance(node.func, ast.Name):
            origin = self.from_imports.get(node.func.id)
            if origin is not None:
                from_module, original = origin
                root = from_module.split(".")[0]
                if root in _ENTROPY_MODULES:
                    self._add_entropy(node, f"{root}.{original}")
                elif root in _ENTROPY_ATTRS and original in _ENTROPY_ATTRS[root]:
                    self._add_entropy(node, f"{root}.{original}")

    def _add_entropy(self, node: ast.Call, description: str) -> None:
        self.summary.entropy_sites.append(
            EntropySite(
                lineno=node.lineno, col=node.col_offset, description=description
            )
        )

    def _record_mutation(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
            and isinstance(func.value, ast.Name)
        ):
            name = func.value.id
            if name not in self.local_names and name not in self.summary.params:
                self.writes.add(name)

    def _record_engine_compare(self, node: ast.Compare) -> None:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        sides = [node.left, *node.comparators]
        literals = [
            s.value
            for s in sides
            if isinstance(s, ast.Constant) and isinstance(s.value, str)
        ]
        if not literals:
            return
        kind: Optional[str] = None
        for side in sides:
            if isinstance(side, ast.Name):
                if side.id == "engine" and "engine" in self.summary.params:
                    kind = "param"
                    break
                if "engine" in side.id.lower():
                    kind = kind or "other"
            elif isinstance(side, ast.Call):
                callee = side.func
                callee_name = (
                    callee.id
                    if isinstance(callee, ast.Name)
                    else getattr(callee, "attr", "")
                )
                if callee_name == "resolve_engine":
                    kind = "resolved"
                    break
            elif isinstance(side, ast.Attribute) and "engine" in side.attr.lower():
                kind = kind or "other"
        if kind is None:
            return
        for literal in literals:
            self.summary.engine_compares.append(
                EngineCompare(
                    lineno=node.lineno,
                    col=node.col_offset,
                    literal=literal,
                    kind=kind,
                )
            )

    def _record_engine_kwargs(self, node: ast.Call) -> None:
        for kw in node.keywords:
            if kw.arg == "engine" and isinstance(kw.value, ast.Constant):
                if isinstance(kw.value.value, str):
                    self.summary.engine_kwarg_literals.append(
                        (node.lineno, node.col_offset, kw.value.value)
                    )
        if "engine" in self.summary.params:
            for arg in node.args:
                if isinstance(arg, ast.Name) and arg.id == "engine":
                    self.summary.engine_forwarded = True
            for kw in node.keywords:
                if isinstance(kw.value, ast.Name) and kw.value.id == "engine":
                    self.summary.engine_forwarded = True

    def _record_runner_submit(self, node: ast.Call, ref: CalleeRef) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in self.config.runner_submit_methods:
            return
        receiver = _dotted_text(func.value)
        if receiver is None:
            return
        root = receiver.split(".")[0]
        is_runner = any(
            marker.lower() in receiver.lower()
            for marker in ("runner",)
        )
        var_type = self.var_types.get(root, "")
        if any(
            marker in var_type for marker in self.config.runner_class_markers
        ):
            is_runner = True
        if not is_runner or not node.args:
            return
        fn_arg = node.args[0]
        if isinstance(fn_arg, ast.Lambda):
            fn_ref: CalleeRef = ("lambda", "")
            fn_text = "<lambda>"
        elif isinstance(fn_arg, ast.Name):
            fn_ref = ("name", fn_arg.id)
            fn_text = fn_arg.id
        else:
            dotted = _dotted_text(fn_arg)
            if dotted is not None:
                fn_ref = ("dotted", dotted)
                fn_text = dotted
            else:
                fn_ref = ("opaque", "")
                fn_text = "<expr>"
        self.summary.runner_submits.append(
            RunnerSubmit(
                lineno=node.lineno,
                col=node.col_offset,
                method=func.attr,
                receiver=receiver,
                fn_ref=fn_ref,
                fn_text=fn_text,
            )
        )

    # -- finalization --------------------------------------------------------

    def finish(self) -> None:
        unbound = self.reads - self.local_names - set(self.summary.params)
        self.summary.reads_globals = tuple(sorted(unbound))
        self.summary.free_reads = tuple(
            sorted(unbound & self.enclosing_locals)
        )
        self.summary.writes_globals = tuple(sorted(self.writes))


def _resolve_relative(module: str, rel_path: str, node: ast.ImportFrom) -> str:
    """Absolute module for a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module or ""
    parts = module.split(".")
    is_package = rel_path.endswith("/__init__.py")
    # level 1 from inside a package refers to the package itself
    drop = node.level - 1 if is_package else node.level
    if drop >= len(parts):
        base: List[str] = []
    else:
        base = parts[: len(parts) - drop]
    if node.module:
        base.append(node.module)
    return ".".join(base)


def summarize_module(
    rel_path: str, tree: ast.Module, config: LintConfig
) -> ModuleSummary:
    """Extract the :class:`ModuleSummary` of one parsed module."""
    summary = ModuleSummary(module=module_name_for(rel_path), rel_path=rel_path)
    _collect_imports(summary, rel_path, tree)
    _collect_toplevel(summary, tree)
    _walk_definitions(
        summary,
        tree.body,
        config,
        qual_prefix="",
        class_name=None,
        parent_function=None,
        enclosing_locals=set(),
    )
    return summary


def _collect_imports(
    summary: ModuleSummary, rel_path: str, tree: ast.Module
) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "numpy":
                    summary.imports_numpy = True
                if alias.asname:
                    summary.module_aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    summary.module_aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            module = _resolve_relative(summary.module, rel_path, node)
            if not module:
                continue
            if module.split(".")[0] == "numpy":
                summary.imports_numpy = True
            for alias in node.names:
                if alias.name == "*":
                    continue
                summary.from_imports[alias.asname or alias.name] = (
                    module,
                    alias.name,
                )


def _collect_toplevel(summary: ModuleSummary, tree: ast.Module) -> None:
    mutable: List[str] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summary.defs[stmt.name] = "func"
        elif isinstance(stmt, ast.ClassDef):
            summary.defs[stmt.name] = "class"
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            value = stmt.value
            if value is None:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names:
                continue
            if _is_mutable_value(value):
                mutable.extend(names)
            literal = _literal_value(value)
            if literal is not None:
                for name in names:
                    summary.constants[name] = literal
            aliased = _alias_target(value)
            if aliased is not None:
                for name in names:
                    summary.function_aliases[name] = aliased
    summary.mutable_globals = tuple(sorted(set(mutable)))


def _alias_target(value: ast.expr) -> Optional[str]:
    """Function name aliased by a wrapping assignment, if recognizable."""
    if isinstance(value, ast.Name):
        return value.id
    if isinstance(value, ast.Call):
        return _innermost_function_name(value)
    return None


def _walk_definitions(
    summary: ModuleSummary,
    body: Sequence[ast.stmt],
    config: LintConfig,
    qual_prefix: str,
    class_name: Optional[str],
    parent_function: Optional[str],
    enclosing_locals: Set[str],
) -> None:
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{qual_prefix}{stmt.name}"
            fn = FunctionSummary(
                qualname=qualname,
                name=stmt.name,
                lineno=stmt.lineno,
                end_lineno=getattr(stmt, "end_lineno", stmt.lineno) or stmt.lineno,
                class_name=class_name,
                parent_function=parent_function,
                params=_arg_names(stmt.args),
            )
            extractor = _FunctionExtractor(
                fn,
                summary.module_aliases,
                summary.from_imports,
                enclosing_locals,
                config,
            )
            extractor.visit(stmt)
            extractor.finish()
            if parent_function is None and config.in_overflow_scope(
                summary.rel_path
            ):
                prov = analyze_function(
                    stmt,
                    config.overflow_value_markers,
                    config.overflow_guard_callees,
                    config.overflow_guard_markers,
                )
                fn.overflow_hazards = prov.hazards
                fn.overflow_guarded = prov.guarded
            summary.functions.append(fn)
            if class_name is not None and parent_function is None:
                summary.classes[class_name].methods.setdefault(
                    stmt.name, qualname
                )
            _walk_definitions(
                summary,
                stmt.body,
                config,
                qual_prefix=f"{qualname}.",
                class_name=None,
                parent_function=qualname,
                enclosing_locals=enclosing_locals
                | extractor.local_names
                | set(fn.params),
            )
        elif isinstance(stmt, ast.ClassDef):
            bases = tuple(
                b for b in (_dotted_text(base) for base in stmt.bases) if b
            )
            summary.classes[stmt.name] = ClassSummary(
                name=stmt.name, lineno=stmt.lineno, bases=bases
            )
            _walk_definitions(
                summary,
                stmt.body,
                config,
                qual_prefix=f"{qual_prefix}{stmt.name}.",
                class_name=stmt.name,
                parent_function=parent_function,
                enclosing_locals=enclosing_locals,
            )
        else:
            # definitions nested under if/try at module or class level
            for child in ast.iter_child_nodes(stmt):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    _walk_definitions(
                        summary,
                        [child],
                        config,
                        qual_prefix=qual_prefix,
                        class_name=class_name,
                        parent_function=parent_function,
                        enclosing_locals=enclosing_locals,
                    )


# -- linking -----------------------------------------------------------------


@dataclass
class GraphStats:
    """Resolution accounting for the self-check tests."""

    total_calls: int = 0
    project_candidates: int = 0
    resolved: int = 0

    @property
    def resolution_rate(self) -> float:
        if not self.project_candidates:
            return 1.0
        return self.resolved / self.project_candidates


class CallGraph:
    """Linked whole-program view: functions, edges, reachability."""

    def __init__(self, config: LintConfig) -> None:
        self.config = config
        self.modules: Dict[str, ModuleSummary] = {}
        #: global qualname -> (module, FunctionSummary)
        self.functions: Dict[str, Tuple[str, FunctionSummary]] = {}
        #: global qualname of caller -> sorted resolved callee qualnames
        self.edges: Dict[str, Tuple[str, ...]] = {}
        self.stats = GraphStats()

    # -- construction --------------------------------------------------------

    @classmethod
    def build(
        cls, summaries: Sequence[ModuleSummary], config: LintConfig
    ) -> "CallGraph":
        graph = cls(config)
        for summary in summaries:
            graph.modules[summary.module] = summary
        for summary in summaries:
            for fn in summary.functions:
                graph.functions[f"{summary.module}.{fn.qualname}"] = (
                    summary.module,
                    fn,
                )
        for summary in summaries:
            for fn in summary.functions:
                graph._link_function(summary, fn)
        return graph

    def _link_function(self, summary: ModuleSummary, fn: FunctionSummary) -> None:
        caller = f"{summary.module}.{fn.qualname}"
        targets: Set[str] = set()
        for call in fn.calls:
            self.stats.total_calls += 1
            resolved, candidate = self.resolve_call(summary, fn, call.ref)
            if candidate:
                self.stats.project_candidates += 1
            if resolved is not None:
                self.stats.resolved += 1
                targets.add(resolved)
        self.edges[caller] = tuple(sorted(targets))

    # -- symbol resolution ---------------------------------------------------

    def resolve_call(
        self,
        summary: ModuleSummary,
        fn: FunctionSummary,
        ref: CalleeRef,
    ) -> Tuple[Optional[str], bool]:
        """``(resolved qualname or None, is project candidate)``."""
        kind = ref[0]
        if kind == "name":
            return self._resolve_name_call(summary, fn, ref[1])
        if kind == "dotted":
            return self._resolve_dotted_call(summary, ref[1])
        if kind == "self":
            if fn.class_name is None:
                return None, False
            target = self.resolve_method(
                summary.module, fn.class_name, ref[1]
            )
            return target, True
        if kind == "var":
            return self._resolve_var_call(summary, ref[1], ref[2])
        return None, False

    def _resolve_name_call(
        self, summary: ModuleSummary, fn: FunctionSummary, name: str
    ) -> Tuple[Optional[str], bool]:
        # sibling definitions in the same class or enclosing function
        if fn.qualname.count(".") and name != fn.name:
            prefix = fn.qualname.rsplit(".", 1)[0]
            sibling = f"{summary.module}.{prefix}.{name}"
            if sibling in self.functions:
                return sibling, True
        resolved = self.resolve_symbol(summary.module, name)
        if resolved is None:
            return None, self._binds_into_project(summary, name)
        kind, qualname = resolved
        if kind == "func":
            return qualname, True
        if kind == "class":
            init = self.resolve_method_of(qualname, "__init__")
            return init or qualname, True
        return None, self._binds_into_project(summary, name)

    def _resolve_dotted_call(
        self, summary: ModuleSummary, dotted: str
    ) -> Tuple[Optional[str], bool]:
        root, _, rest = dotted.partition(".")
        base_module: Optional[str] = None
        if root in summary.module_aliases:
            base_module = summary.module_aliases[root]
        elif root in summary.from_imports:
            from_module, original = summary.from_imports[root]
            resolved = self.resolve_symbol_entry(from_module, original)
            if resolved is not None and resolved[0] == "module":
                base_module = resolved[1]
            elif resolved is not None and resolved[0] == "class" and rest:
                # ClassName.method(...) as an unbound call
                parts = rest.split(".")
                if len(parts) == 1:
                    return (
                        self.resolve_method_of(resolved[1], parts[0]),
                        True,
                    )
                return None, True
            elif resolved is not None:
                return None, True
        if base_module is None:
            return None, False
        full = f"{base_module}.{rest}" if rest else base_module
        if not self._is_project_module_root(full):
            return None, False
        # longest known-module prefix; remainder is the symbol path
        parts = full.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                remainder = parts[cut:]
                return self._resolve_symbol_path(prefix, remainder), True
        return None, True

    def _resolve_var_call(
        self, summary: ModuleSummary, class_text: str, method: str
    ) -> Tuple[Optional[str], bool]:
        class_qual = self._resolve_class_text(summary, class_text)
        if class_qual is None:
            return None, False
        return self.resolve_method_of(class_qual, method), True

    def _resolve_class_text(
        self, summary: ModuleSummary, class_text: str
    ) -> Optional[str]:
        """Fully-qualified project class for a dotted class expression."""
        root, _, rest = class_text.partition(".")
        if not rest:
            resolved = self.resolve_symbol(summary.module, root)
            if resolved is not None and resolved[0] == "class":
                return resolved[1]
            return None
        if root in summary.module_aliases:
            candidate = f"{summary.module_aliases[root]}.{rest}"
            module, _, cls = candidate.rpartition(".")
            if module in self.modules and cls in self.modules[module].classes:
                return candidate
        return None

    def _resolve_symbol_path(
        self, module: str, path: List[str]
    ) -> Optional[str]:
        if not path:
            return None
        head, tail = path[0], path[1:]
        resolved = self.resolve_symbol_entry(module, head)
        if resolved is None:
            return None
        kind, qualname = resolved
        if kind == "func":
            return qualname if not tail else None
        if kind == "class":
            if len(tail) == 1:
                return self.resolve_method_of(qualname, tail[0])
            return None if tail else qualname
        if kind == "module":
            return self._resolve_symbol_path(qualname, tail)
        return None

    def resolve_symbol(
        self, module: str, name: str
    ) -> Optional[Tuple[str, str]]:
        """Resolve to ``("func"|"class", qualname)`` following re-exports."""
        resolved = self.resolve_symbol_entry(module, name)
        if resolved is not None and resolved[0] == "module":
            return None
        return resolved

    def resolve_symbol_entry(
        self, module: str, name: str, _seen: Optional[Set[Tuple[str, str]]] = None
    ) -> Optional[Tuple[str, str]]:
        """``("func"|"class"|"module", qualname)`` for ``module.name``."""
        if _seen is None:
            _seen = set()
        key = (module, name)
        if key in _seen:
            return None
        _seen.add(key)
        summary = self.modules.get(module)
        if summary is None:
            return None
        kind = summary.defs.get(name)
        if kind == "func":
            return ("func", f"{module}.{name}")
        if kind == "class":
            return ("class", f"{module}.{name}")
        if name in summary.function_aliases:
            target = summary.function_aliases[name]
            if summary.defs.get(target) == "func":
                return ("func", f"{module}.{target}")
        if name in summary.from_imports:
            from_module, original = summary.from_imports[name]
            resolved = self.resolve_symbol_entry(from_module, original, _seen)
            if resolved is not None:
                return resolved
            if f"{from_module}.{original}" in self.modules:
                return ("module", f"{from_module}.{original}")
            return None
        if name in summary.module_aliases:
            return ("module", summary.module_aliases[name])
        if f"{module}.{name}" in self.modules:
            return ("module", f"{module}.{name}")
        return None

    def resolve_method(
        self, module: str, class_name: str, method: str
    ) -> Optional[str]:
        return self.resolve_method_of(f"{module}.{class_name}", method)

    def resolve_method_of(
        self, class_qualname: str, method: str, _seen: Optional[Set[str]] = None
    ) -> Optional[str]:
        """Resolve a method through the class and its project bases."""
        if _seen is None:
            _seen = set()
        if class_qualname in _seen:
            return None
        _seen.add(class_qualname)
        module, _, class_name = class_qualname.rpartition(".")
        summary = self.modules.get(module)
        if summary is None:
            return None
        cls = summary.classes.get(class_name)
        if cls is None:
            return None
        local = cls.methods.get(method)
        if local is not None:
            return f"{module}.{local}"
        for base_text in cls.bases:
            base_qual = self._resolve_class_text(summary, base_text)
            if base_qual is not None:
                found = self.resolve_method_of(base_qual, method, _seen)
                if found is not None:
                    return found
        return None

    def _binds_into_project(self, summary: ModuleSummary, name: str) -> bool:
        """Does ``name`` bind to something defined inside the project?"""
        if name in summary.defs:
            return True
        if name in summary.function_aliases:
            return True
        if name in summary.from_imports:
            from_module = summary.from_imports[name][0]
            return self._is_project_module_root(from_module)
        return False

    def _is_project_module_root(self, dotted: str) -> bool:
        root = dotted.split(".")[0]
        return any(
            module == root or module.startswith(root + ".")
            for module in self.modules
        )

    # -- reachability --------------------------------------------------------

    def reachable_from(
        self, seeds: Sequence[str]
    ) -> Dict[str, Optional[str]]:
        """BFS over call edges; ``{reached: predecessor}`` (seeds map to None).

        Adjacency is iterated in sorted order, so the predecessor tree --
        and therefore every taint-chain message built from it -- is
        deterministic.
        """
        parents: Dict[str, Optional[str]] = {}
        queue: deque[str] = deque()
        for seed in sorted(set(seeds)):
            if seed in self.functions and seed not in parents:
                parents[seed] = None
                queue.append(seed)
        while queue:
            current = queue.popleft()
            for target in self.edges.get(current, ()):
                if target not in parents and target in self.functions:
                    parents[target] = current
                    queue.append(target)
        return parents

    def chain_to(
        self, parents: Dict[str, Optional[str]], target: str
    ) -> List[str]:
        """Seed-to-target path through the BFS predecessor tree."""
        chain: List[str] = []
        current: Optional[str] = target
        while current is not None:
            chain.append(current)
            current = parents.get(current)
        return list(reversed(chain))


__all__ = [
    "CallGraph",
    "CallSite",
    "ClassSummary",
    "EngineCompare",
    "EntropySite",
    "FunctionSummary",
    "GraphStats",
    "ModuleSummary",
    "RunnerSubmit",
    "module_name_for",
    "summarize_module",
]
