"""Per-module fact extraction: AST -> dataflow IR.

One :class:`ModuleSummary` holds everything the interprocedural passes
need from one source file:

- every function/method lowered to an ordered list of **IR statements**
  over **expression descriptors** — only the shapes the width/residency
  lattices interpret (names, attributes, subscripts, arithmetic, calls
  with best-effort callee references, dtype expressions); everything else
  collapses to ``["unknown"]``;
- **RNG consumption sites**: each ``<x>.rngs.<stream>`` attribute access,
  ``.get("stream")`` call and ``.batched_eval()`` call;
- the **R9 declarations** (``STREAM_NAMES``, ``STREAM_CONSUMERS``,
  ``RESERVED_STREAMS``) when the module is an ``engine/rng.py``;
- import tables (numpy aliases, from-imports) for callee resolution.

Descriptor grammar (plain lists, first element is the tag)::

    ["name", ident]            local variable read
    ["selfattr", attr]         self.<attr> read
    ["attr", base, attr]       attribute read on a lowered base
    ["sub", base]              subscript read (views keep dtype/residency)
    ["bin", [operands]]        arithmetic / comparison / boolean mixing
    ["ifexp", [a, b]]          conditional expression (join of branches)
    ["coll", [items]]          tuple/list display (argument containers)
    ["call", callee, args, kwargs, line, col]
    ["dtype", "narrow"|"wide"] recognised dtype literal (np.uint8, ...)
    ["dtypeof", base]          <base>.dtype
    ["const"] / ["unknown"]

    callee ::= ["np", fn] | ["xp", fn] | ["func", name]
             | ["method", recv_desc, name]

Statements::

    ["assign", [targets], value, line, col, weak]
    ["ret", value, line, col]
    ["expr", value, line, col]          (bare call statements)

``weak`` is true for assignments under a branch or loop body: those join
into the target (the other path may have left a different value), while
top-level rebinds replace it — which is what lets ``x = ops.to_host(x)``
genuinely kill a device atom.

    target ::= ["name", x] | ["selfattr", a]
             | ["substore", base_desc] | ["attrstore", base_desc, attr]

Lowering is order-preserving but flow-insensitive: branch and loop bodies
are flattened in source order, and the interpreters run each function body
twice so loop-carried values reach their join.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Dtype literals the width lattice treats as narrow code storage.
NARROW_DTYPES = frozenset({"uint8", "uint16"})

#: Dtype literals that widen a code array past its declared storage.
WIDE_DTYPES = frozenset(
    {
        "int16", "int32", "int64", "intp", "longlong",
        "float16", "float32", "float64", "double", "single", "half",
    }
)

#: ``RngStreams`` API attributes that are not stream names.
RNG_API_ATTRS = frozenset(
    {
        "state_dict", "load_state_dict", "reseed", "seed",
        "get", "batched_eval",
    }
)

#: Names that bind an ``RngStreams`` bundle by convention.
_RNGS_NAMES = frozenset({"rngs", "_rngs", "rng_streams"})

#: Module-level constants the R9 pass reads from ``engine/rng.py``.
RNG_DECLARATION_NAMES = ("STREAM_NAMES", "STREAM_CONSUMERS", "RESERVED_STREAMS")


@dataclass
class FunctionSummary:
    """One function or method lowered to the dataflow IR."""

    qualname: str          #: module-relative ("f" or "Class.method")
    line: int
    params: List[str]      #: positional-or-keyword names, ``self`` stripped
    is_method: bool
    stmts: List[Any] = field(default_factory=list)


@dataclass
class RngSite:
    """One consumption site of a named RNG stream."""

    stream: str
    line: int
    col: int


@dataclass
class ModuleSummary:
    """All extracted facts for one module."""

    path: str
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    rng_sites: List[RngSite] = field(default_factory=list)
    #: R9 declarations: name -> {"value": literal, "line": int}.
    declarations: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: local alias -> (module, name) for ``from m import n [as a]``.
    from_imports: Dict[str, List[str]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# expression lowering
# ---------------------------------------------------------------------------


class _Lowerer:
    """Lowers one function body; shared import tables come from the module."""

    def __init__(self, np_aliases: frozenset) -> None:
        self.np_aliases = np_aliases
        #: Names locally bound to an ``Ops.xp`` array module.
        self.xp_names = {"xp"}
        #: Nesting depth of branch/loop bodies (weak-update regions).
        self._branch_depth = 0

    # -- expressions --------------------------------------------------

    def lower(self, node: ast.expr) -> List[Any]:
        if isinstance(node, ast.Name):
            return ["name", node.id]
        if isinstance(node, ast.Attribute):
            return self._lower_attribute(node)
        if isinstance(node, ast.Subscript):
            return ["sub", self.lower(node.value)]
        if isinstance(node, ast.BinOp):
            return ["bin", [self.lower(node.left), self.lower(node.right)]]
        if isinstance(node, ast.UnaryOp):
            return self.lower(node.operand)
        if isinstance(node, ast.Compare):
            return ["bin", [self.lower(node.left)] + [self.lower(c) for c in node.comparators]]
        if isinstance(node, ast.BoolOp):
            return ["bin", [self.lower(v) for v in node.values]]
        if isinstance(node, ast.IfExp):
            return ["ifexp", [self.lower(node.body), self.lower(node.orelse)]]
        if isinstance(node, ast.Call):
            return self._lower_call(node)
        if isinstance(node, (ast.Tuple, ast.List)):
            return ["coll", [self.lower(el) for el in node.elts]]
        if isinstance(node, ast.Constant):
            return ["const"]
        if isinstance(node, ast.Starred):
            return self.lower(node.value)
        if isinstance(node, ast.NamedExpr):
            return self.lower(node.value)
        return ["unknown"]

    def _lower_attribute(self, node: ast.Attribute) -> List[Any]:
        # Recognised dtype literals first: np.uint8 -> ["dtype", "narrow"].
        base = node.value
        if isinstance(base, ast.Name) and base.id in self.np_aliases:
            if node.attr in NARROW_DTYPES:
                return ["dtype", "narrow"]
            if node.attr in WIDE_DTYPES:
                return ["dtype", "wide"]
        if node.attr == "dtype":
            return ["dtypeof", self.lower(base)]
        if isinstance(base, ast.Name) and base.id == "self":
            return ["selfattr", node.attr]
        return ["attr", self.lower(base), node.attr]

    def _lower_callee(self, func: ast.expr) -> List[Any]:
        if isinstance(func, ast.Name):
            return ["func", func.id]
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                if base.id in self.np_aliases:
                    return ["np", func.attr]
                if base.id in self.xp_names:
                    return ["xp", func.attr]
            # ops.xp.zeros / self._ops.xp.zeros: attribute chain ending .xp
            if isinstance(base, ast.Attribute) and base.attr == "xp":
                return ["xp", func.attr]
            return ["method", self.lower(base), func.attr]
        return ["method", ["unknown"], "<dynamic>"]

    def _lower_call(self, node: ast.Call) -> List[Any]:
        callee = self._lower_callee(node.func)
        args = [self.lower(a) for a in node.args]
        kwargs: Dict[str, Any] = {}
        for kw in node.keywords:
            if kw.arg is not None:
                kwargs[kw.arg] = self.lower(kw.value)
        return ["call", callee, args, kwargs, node.lineno, node.col_offset + 1]

    # -- statements ---------------------------------------------------

    def lower_target(self, node: ast.expr) -> Optional[List[Any]]:
        if isinstance(node, ast.Name):
            return ["name", node.id]
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return ["selfattr", node.attr]
            return ["attrstore", self.lower(node.value), node.attr]
        if isinstance(node, ast.Subscript):
            return ["substore", self.lower(node.value)]
        return None

    def lower_body(self, body: List[ast.stmt], out: List[Any]) -> None:
        for stmt in body:
            self.lower_stmt(stmt, out)

    def lower_stmt(self, node: ast.stmt, out: List[Any]) -> None:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            self._lower_assign(node, out)
        elif isinstance(node, ast.Return):
            if node.value is not None:
                out.append(["ret", self.lower(node.value), node.lineno, node.col_offset + 1])
        elif isinstance(node, ast.Expr):
            if isinstance(node.value, ast.Call):
                out.append(
                    ["expr", self.lower(node.value), node.lineno, node.col_offset + 1]
                )
        elif isinstance(node, (ast.If, ast.While, ast.For)):
            self._branch_depth += 1
            self.lower_body(node.body, out)
            self.lower_body(node.orelse, out)
            self._branch_depth -= 1
        elif isinstance(node, ast.With):
            self.lower_body(node.body, out)
        elif isinstance(node, ast.Try):
            self._branch_depth += 1
            self.lower_body(node.body, out)
            for handler in node.handlers:
                self.lower_body(handler.body, out)
            self.lower_body(node.orelse, out)
            self.lower_body(node.finalbody, out)
            self._branch_depth -= 1
        # Nested defs, classes, imports inside functions: not lowered.

    def _lower_assign(self, node: ast.stmt, out: List[Any]) -> None:
        weak = self._branch_depth > 0
        if isinstance(node, ast.Assign):
            value = self.lower(node.value)
            targets = []
            for raw in node.targets:
                if isinstance(raw, (ast.Tuple, ast.List)):
                    targets.extend(
                        t for t in (self.lower_target(el) for el in raw.elts) if t
                    )
                else:
                    target = self.lower_target(raw)
                    if target:
                        targets.append(target)
            # `xp = ops.xp` style rebinding: remember the alias for callee
            # classification in *later* statements of this function.
            if (
                isinstance(node.value, ast.Attribute)
                and node.value.attr == "xp"
            ):
                for target in targets:
                    if target[0] == "name":
                        self.xp_names.add(target[1])
            if targets:
                out.append(
                    ["assign", targets, value, node.lineno, node.col_offset + 1, weak]
                )
        elif isinstance(node, ast.AnnAssign):
            if node.value is None:
                return
            target = self.lower_target(node.target)
            if target:
                out.append(
                    ["assign", [target], self.lower(node.value),
                     node.lineno, node.col_offset + 1, weak]
                )
        elif isinstance(node, ast.AugAssign):
            target = self.lower_target(node.target)
            if target is None:
                return
            read = self.lower(node.target)
            value = ["bin", [read, self.lower(node.value)]]
            # Augmented assignment reads its old value, so the update is
            # inherently a join of old and new.
            out.append(
                ["assign", [target], value, node.lineno, node.col_offset + 1, True]
            )


# ---------------------------------------------------------------------------
# RNG-site collection
# ---------------------------------------------------------------------------


def _is_rngs_base(node: ast.expr) -> bool:
    """Whether *node* conventionally binds an ``RngStreams`` bundle."""
    if isinstance(node, ast.Name):
        return node.id in _RNGS_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _RNGS_NAMES
    return False


class _RngCollector(ast.NodeVisitor):
    """Walks one module recording every named-stream consumption site."""

    def __init__(self) -> None:
        self.sites: List[RngSite] = []
        #: Call nodes already claimed by get/batched_eval so
        #: their ``func`` attribute is not double-counted by visit_Attribute.
        self._claimed: set = set()

    def _add(self, stream: str, node: ast.expr) -> None:
        self.sites.append(RngSite(stream, node.lineno, node.col_offset + 1))

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and _is_rngs_base(func.value):
            if func.attr == "batched_eval":
                self._claimed.add(id(func))
                self._add("batched_eval", node)
            elif func.attr == "get":
                self._claimed.add(id(func))
                if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
                    node.args[0].value, str
                ):
                    self._add(node.args[0].value, node)
                # Non-constant stream names are invisible to the analysis;
                # R9 documents this as an accepted soundness limit.
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            id(node) not in self._claimed
            and _is_rngs_base(node.value)
            and node.attr not in RNG_API_ATTRS
            and not node.attr.startswith("_")
        ):
            self._add(node.attr, node)
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# module extraction
# ---------------------------------------------------------------------------


def _collect_np_aliases(tree: ast.Module) -> frozenset:
    aliases = {"np", "numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return frozenset(aliases)


def _collect_from_imports(tree: ast.Module) -> Dict[str, List[str]]:
    imports: Dict[str, List[str]] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                imports[alias.asname or alias.name] = [node.module, alias.name]
    return imports


def _collect_declarations(tree: ast.Module) -> Dict[str, Dict[str, Any]]:
    """R9 declaration literals (``STREAM_NAMES`` etc.) at module level."""
    out: Dict[str, Dict[str, Any]] = {}
    for node in tree.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id in RNG_DECLARATION_NAMES
                and value is not None
            ):
                try:
                    literal = ast.literal_eval(value)
                except ValueError:
                    continue  # not a plain literal: invisible to R9
                out[target.id] = {"value": literal, "line": node.lineno}
    return out


def _function_params(node: Any, is_method: bool) -> List[str]:
    args = node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    if is_method and names and names[0] in ("self", "cls"):
        names = names[1:]
    names += [a.arg for a in args.kwonlyargs]
    return names


def extract_summary(tree: ast.Module, path: str) -> ModuleSummary:
    """Lower one parsed module into its :class:`ModuleSummary`."""
    np_aliases = _collect_np_aliases(tree)
    summary = ModuleSummary(
        path=path,
        from_imports=_collect_from_imports(tree),
        declarations=_collect_declarations(tree),
    )

    def lower_function(node: Any, qualname: str, is_method: bool) -> None:
        lowerer = _Lowerer(np_aliases)
        fn = FunctionSummary(
            qualname=qualname,
            line=node.lineno,
            params=_function_params(node, is_method),
            is_method=is_method,
        )
        lowerer.lower_body(node.body, fn.stmts)
        summary.functions[qualname] = fn

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            lower_function(node, node.name, is_method=False)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    lower_function(item, f"{node.name}.{item.name}", is_method=True)

    collector = _RngCollector()
    collector.visit(tree)
    summary.rng_sites = collector.sites
    return summary
