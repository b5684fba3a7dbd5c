"""Static commutativity footprints from the lint program index.

For each message type a protocol dispatcher handles, compute the set of
``self.*`` attributes the handler's call closure can touch.  Two
deliveries to the same replica and protocol instance commute when their
footprints are disjoint; the DPOR engine then treats them as independent.

Footprints are *touch sets* (reads and writes merged): a handler that
only loads ``self._frags`` may still mutate it through a local alias
(``group = self._frags.setdefault(...); group[i] = ...``), so the
read/write distinction cannot be trusted statically.  Merging keeps the
independence direction sound — disjoint touch sets really do commute —
at the cost of a few extra schedules.

Dispatch mapping is recovered from the dispatcher's own AST: branches of
the form ``isinstance(msg, SomeMessage)`` are paired with the calls in
their bodies, so the mapping tracks the real code instead of a
hand-maintained table.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.framework import Program
from repro.lint.index import FunctionInfo, ProgramIndex

_SRC_ROOT = Path(__file__).resolve().parents[2]  # .../src
_REPO_ROOT = _SRC_ROOT.parent


@lru_cache(maxsize=1)
def broadcast_index() -> ProgramIndex:
    """Shared index over the broadcast package (built once per process)."""
    return Program.from_paths([_SRC_ROOT / "repro" / "broadcast"], _REPO_ROOT).index


def _self_attrs(node: ast.AST) -> Set[str]:
    out: Set[str] = set()
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id == "self"
        ):
            out.add(sub.attr)
    return out


def closure_touch_set(index: ProgramIndex, roots: Set[str]) -> FrozenSet[str]:
    """All ``self.*`` attribute names touched by the call closure of
    ``roots`` (function qnames), via :meth:`ProgramIndex.call_closure`."""
    touched: Set[str] = set()
    for qname in index.call_closure(roots):
        fn = index.functions.get(qname)
        if fn is not None:
            touched |= _self_attrs(fn.node)
    return frozenset(touched)


def _isinstance_types(test: ast.expr, param: str) -> List[str]:
    """Message class names from ``isinstance(<param>, T)`` in a branch test."""
    names: List[str] = []
    for sub in ast.walk(test):
        if not (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "isinstance"
            and len(sub.args) == 2
            and isinstance(sub.args[0], ast.Name)
            and sub.args[0].id == param
        ):
            continue
        type_arg = sub.args[1]
        elements = (
            type_arg.elts if isinstance(type_arg, ast.Tuple) else [type_arg]
        )
        for element in elements:
            if isinstance(element, ast.Name):
                names.append(element.id)
            elif isinstance(element, ast.Attribute):
                names.append(element.attr)
    return names


class FootprintOracle:
    """Per-message-type touch sets for one dispatcher method."""

    def __init__(
        self,
        index: ProgramIndex,
        class_qname: str,
        dispatcher: str = "on_message",
        message_param: str = "msg",
    ) -> None:
        self.index = index
        self._by_type: Dict[str, FrozenSet[str]] = {}
        self._fallback: Optional[FrozenSet[str]] = None
        fn_qname = index.resolve_method(class_qname, dispatcher)
        if fn_qname is None:
            return
        fn = index.functions[fn_qname]
        self._fallback = closure_touch_set(index, {fn_qname})
        self._map_branches(fn, message_param)

    def _map_branches(self, fn: FunctionInfo, param: str) -> None:
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.If):
                continue
            type_names = _isinstance_types(node.test, param)
            if not type_names:
                continue
            roots: Set[str] = set()
            inline: Set[str] = set()
            for stmt in node.body:
                inline |= _self_attrs(stmt)
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Call):
                        qname, _name = self.index.resolve_call(sub, fn)
                        if qname is not None:
                            roots.add(qname)
            touched = frozenset(inline) | closure_touch_set(self.index, roots)
            for type_name in type_names:
                merged = self._by_type.get(type_name, frozenset()) | touched
                self._by_type[type_name] = merged

    def footprint(self, message_type: str) -> Optional[FrozenSet[str]]:
        """Touch set for a message class name; dispatcher-wide fallback
        when the branch was not recovered; None when nothing is known."""
        hit = self._by_type.get(message_type)
        if hit is not None:
            return hit
        return self._fallback


@lru_cache(maxsize=8)
def oracle_for(class_qname: str) -> FootprintOracle:
    return FootprintOracle(broadcast_index(), class_qname)
