"""Whole-program index shared by the ``repro lint`` passes.

Built once per run from the :class:`~repro.lint.framework.Program`'s
parsed trees, it holds:

* a symbol table of functions/methods (:class:`FunctionInfo`) and classes
  (:class:`ClassInfo`, with base classes, dataclass fields, and attribute
  type annotations such as ``self.executor: CryptoExecutor``);
* handler registrations (``set_handler(self.on_message)``, lambdas,
  ``functools.partial`` wrappers) so transport ingress is recognized even
  when the callback is not named like a handler;
* a call-target resolver covering the repo's dispatch idioms: direct
  calls, ``self.method()`` through the MRO, ``self.attr.method()`` through
  annotated protocol attributes, and a unique-name fallback for everything
  else.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.framework import FileContext, ImportMap
from repro.lint.taint_specs import HANDLER_EXACT_NAMES, HANDLER_NAME_PREFIXES

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]

#: Call names that register a callback as a transport/message handler.
HANDLER_REGISTRARS = frozenset(
    {"set_handler", "add_handler", "register_handler", "subscribe", "on_receive"}
)


#: Public method names of the builtin containers and strings; a call
#: ``x.<name>()`` on an unknown receiver is not resolved by name alone.
_BUILTIN_METHODS = frozenset(
    name
    for kind in (dict, list, set, frozenset, tuple, str, bytes, bytearray)
    for name in dir(kind)
    if not name.startswith("_")
)


def is_handler_name(name: str) -> bool:
    return name in HANDLER_EXACT_NAMES or any(
        name.startswith(prefix) for prefix in HANDLER_NAME_PREFIXES
    )


@dataclass
class FunctionInfo:
    """One function, method, or registered lambda."""

    qname: str  # "module:Class.method" / "module:func" / "module:f.<lambda:LN>"
    module: str
    path: str
    name: str
    node: FunctionNode
    params: Tuple[str, ...]
    cls: Optional[str] = None  # owning class qname ("module:Class")
    is_handler: bool = False
    lineno: int = 0


@dataclass
class ClassInfo:
    qname: str  # "module:Class"
    module: str
    name: str
    bases: Tuple[str, ...] = ()  # resolved dotted names (best effort)
    methods: Dict[str, str] = field(default_factory=dict)  # name -> fn qname
    attr_types: Dict[str, str] = field(default_factory=dict)  # attr -> dotted type
    is_dataclass: bool = False
    fields: Tuple[str, ...] = ()  # dataclass field names, declaration order


@dataclass
class ModuleInfo:
    module: str
    path: str
    tree: ast.Module
    imports: ImportMap


def _param_names(node: FunctionNode) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    return tuple(names)


def _annotation_name(node: Optional[ast.expr]) -> Optional[str]:
    """Best-effort bare type name from an annotation expression.

    Strips ``Optional[...]``/string quoting; returns the trailing name of
    a dotted path so it can be matched against indexed classes.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Subscript):  # Optional[T] / List[T] -> T
        inner = node.slice
        if isinstance(inner, ast.Tuple) and inner.elts:
            inner = inner.elts[0]
        return _annotation_name(inner)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):  # T | None
        left = _annotation_name(node.left)
        if left and left != "None":
            return left
        return _annotation_name(node.right)
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


class ProgramIndex:
    """Symbol table + call graph over a set of modules."""

    def __init__(self, files: Sequence[FileContext]) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: bare function/method name -> fn qnames (for unique-name fallback)
        self.by_name: Dict[str, List[str]] = {}
        #: bare class name -> class qnames
        self.class_by_name: Dict[str, List[str]] = {}
        for ctx in files:
            self._index_module(ctx)
        self._resolve_registrations()

    # -- construction ---------------------------------------------------------

    def _index_module(self, ctx: FileContext) -> None:
        # a file outside the package is keyed by its path
        key = ctx.module or ctx.path
        info = ModuleInfo(module=key, path=ctx.path, tree=ctx.tree, imports=ctx.imports)
        self.modules[key] = info
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(info, node, cls=None)
            elif isinstance(node, ast.ClassDef):
                self._index_class(info, node)

    def _add_function(
        self, mod: ModuleInfo, node: FunctionNode, cls: Optional[ClassInfo]
    ) -> FunctionInfo:
        name = getattr(node, "name", f"<lambda:{node.lineno}>")
        qname = (
            f"{mod.module}:{cls.name}.{name}" if cls else f"{mod.module}:{name}"
        )
        fn = FunctionInfo(
            qname=qname,
            module=mod.module,
            path=mod.path,
            name=name,
            node=node,
            params=_param_names(node),
            cls=cls.qname if cls else None,
            is_handler=is_handler_name(name),
            lineno=node.lineno,
        )
        self.functions[qname] = fn
        self.by_name.setdefault(name, []).append(qname)
        if cls is not None:
            cls.methods[name] = qname
        return fn

    def _index_class(self, mod: ModuleInfo, node: ast.ClassDef) -> None:
        qname = f"{mod.module}:{node.name}"
        is_dc = any(
            (mod.imports.resolve(dec.func if isinstance(dec, ast.Call) else dec) or "")
            .endswith("dataclass")
            for dec in node.decorator_list
        )
        bases = tuple(
            resolved
            for base in node.bases
            if (resolved := mod.imports.resolve(base)) is not None
        )
        cls = ClassInfo(
            qname=qname, module=mod.module, name=node.name, bases=bases, is_dataclass=is_dc
        )
        self.classes[qname] = cls
        self.class_by_name.setdefault(node.name, []).append(qname)
        fields: List[str] = []
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, stmt, cls)
                self._scan_self_attr_types(mod, cls, stmt)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                fields.append(stmt.target.id)
                type_name = _annotation_name(stmt.annotation)
                if type_name:
                    cls.attr_types[stmt.target.id] = type_name
        if is_dc:
            cls.fields = tuple(fields)

    def _scan_self_attr_types(
        self, mod: ModuleInfo, cls: ClassInfo, fn: ast.AST
    ) -> None:
        """Record ``self.x: T = ...`` and ``self.x = ClassName(...)``."""
        for node in ast.walk(fn):
            target: Optional[ast.expr] = None
            type_name: Optional[str] = None
            if isinstance(node, ast.AnnAssign):
                target = node.target
                type_name = _annotation_name(node.annotation)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(node.value, ast.Call):
                    callee = node.value.func
                    resolved = mod.imports.resolve(callee)
                    if resolved:
                        type_name = resolved.rsplit(".", 1)[-1]
            if (
                target is not None
                and type_name
                and isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                cls.attr_types.setdefault(target.attr, type_name)

    def _resolve_registrations(self) -> None:
        """Mark handler-registered callbacks (incl. lambdas/partials)."""
        for mod in list(self.modules.values()):
            for node in ast.walk(mod.tree):
                if not isinstance(node, ast.Call):
                    continue
                callee = node.func
                call_name = (
                    callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", "")
                )
                if call_name not in HANDLER_REGISTRARS:
                    continue
                for arg in node.args:
                    self._mark_handler_arg(mod, arg)

    def _mark_handler_arg(self, mod: ModuleInfo, arg: ast.expr) -> None:
        # functools.partial(self._on_x, ...) -> unwrap to the real target
        if isinstance(arg, ast.Call):
            resolved = mod.imports.resolve(arg.func)
            if resolved and resolved.rsplit(".", 1)[-1] == "partial" and arg.args:
                self._mark_handler_arg(mod, arg.args[0])
            return
        if isinstance(arg, ast.Lambda):
            fn = self._add_function(mod, arg, cls=None)
            fn.is_handler = True
            return
        name: Optional[str] = None
        if isinstance(arg, ast.Attribute):  # self.on_message / node.handler
            name = arg.attr
        elif isinstance(arg, ast.Name):
            name = arg.id
        if not name:
            return
        for qname in self.by_name.get(name, ()):
            self.functions[qname].is_handler = True

    # -- lookups --------------------------------------------------------------

    def mro(self, class_qname: str) -> List[ClassInfo]:
        """Breadth-first base-class chain (best effort, cycles guarded)."""
        out: List[ClassInfo] = []
        seen = set()
        queue = [class_qname]
        while queue:
            qname = queue.pop(0)
            if qname in seen:
                continue
            seen.add(qname)
            cls = self.classes.get(qname)
            if cls is None:
                continue
            out.append(cls)
            for base in cls.bases:
                bare = base.rsplit(".", 1)[-1]
                candidates = self.class_by_name.get(bare, [])
                if len(candidates) == 1:
                    queue.append(candidates[0])
                else:  # prefer same-module definition
                    queue.extend(c for c in candidates if c.startswith(cls.module + ":"))
        return out

    def resolve_method(self, class_qname: str, method: str) -> Optional[str]:
        for cls in self.mro(class_qname):
            if method in cls.methods:
                return cls.methods[method]
        return None

    def resolve_class(self, module: str, dotted: Optional[str]) -> Optional[str]:
        """Class qname for a resolved dotted name (``repro.x.Cls`` or bare)."""
        if not dotted:
            return None
        if "." in dotted:
            mod_part, _, cls_part = dotted.rpartition(".")
            qname = f"{mod_part}:{cls_part}"
            if qname in self.classes:
                return qname
            dotted = cls_part
        local = f"{module}:{dotted}"
        if local in self.classes:
            return local
        candidates = self.class_by_name.get(dotted, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_call(
        self, call: ast.Call, caller: FunctionInfo
    ) -> Tuple[Optional[str], str]:
        """(callee function qname or None, trailing call name)."""
        mod = self.modules.get(caller.module) or self.modules.get(caller.path)
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            if mod is not None:
                dotted = mod.imports.resolve(func)
                if dotted:
                    mod_part, _, fn_part = dotted.rpartition(".")
                    qname = f"{mod_part}:{fn_part}" if mod_part else ""
                    if qname in self.functions:
                        return qname, name
                    # imported class constructor?
                    cls_qname = self.resolve_class(caller.module, dotted)
                    if cls_qname is not None:
                        return None, name  # constructors handled by caller
            local = f"{caller.module}:{name}"
            if local in self.functions:
                return local, name
            candidates = self.by_name.get(name, [])
            if len(candidates) == 1:
                return candidates[0], name
            return None, name
        if isinstance(func, ast.Attribute):
            name = func.attr
            base = func.value
            # self.method()
            if isinstance(base, ast.Name) and base.id == "self" and caller.cls:
                target = self.resolve_method(caller.cls, name)
                if target is not None:
                    return target, name
            # self.attr.method() through an annotated protocol attribute
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and caller.cls
            ):
                for cls in self.mro(caller.cls):
                    attr_type = cls.attr_types.get(base.attr)
                    if attr_type:
                        cls_qname = self.resolve_class(caller.module, attr_type)
                        if cls_qname:
                            target = self.resolve_method(cls_qname, name)
                            if target is not None:
                                return target, name
                        break
            # Module-level function through imports: module.func()
            if mod is not None:
                dotted = mod.imports.resolve(func)
                if dotted:
                    mod_part, _, fn_part = dotted.rpartition(".")
                    qname = f"{mod_part}:{fn_part}" if mod_part else ""
                    if qname in self.functions:
                        return qname, name
            # unique-name fallback, except for builtin container methods:
            # one user-defined ``add`` must not capture every ``set.add``
            if name in _BUILTIN_METHODS:
                return None, name
            candidates = self.by_name.get(name, [])
            if len(candidates) == 1:
                return candidates[0], name
            return None, name
        return None, ""

    def call_closure(self, roots: Iterable[str]) -> Set[str]:
        """Transitive call-graph closure of ``roots`` (function qnames).

        BFS through :meth:`resolve_call` over every call site of every
        reached function; the explorer's commutativity footprints use it.
        """
        seen: Set[str] = {q for q in roots if q in self.functions}
        queue = list(seen)
        while queue:
            fn = self.functions[queue.pop()]
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    qname, _name = self.resolve_call(node, fn)
                    if qname and qname in self.functions and qname not in seen:
                        seen.add(qname)
                        queue.append(qname)
        return seen

    def resolve_constructor(
        self, call: ast.Call, caller: FunctionInfo
    ) -> Optional[ClassInfo]:
        """ClassInfo when the call is a (dataclass) constructor."""
        mod = self.modules.get(caller.module) or self.modules.get(caller.path)
        dotted = mod.imports.resolve(call.func) if mod is not None else None
        if dotted is None and isinstance(call.func, ast.Name):
            dotted = call.func.id
        cls_qname = self.resolve_class(caller.module, dotted)
        if cls_qname is None:
            return None
        return self.classes.get(cls_qname)

