"""AST rules R1, R2, R4 and R5: determinism, numerics and exception
hygiene.

Each rule is a :class:`ast.NodeVisitor` over one parsed module.  The rules
are deliberately syntactic — they prove properties of the *source*, not of
a particular run, which is exactly what the engine registry's equivalence
tiers need: a seedless generator is nondeterministic on every path, not
just the ones the test suite happens to execute.

R3 (registry conformance) lives in :mod:`repro.lint.contracts` because it
works by import/inspection of the live registry rather than by parsing.

Suppression: a ``# lint-ok`` comment on the offending line silences every
rule there; ``# lint-ok: R1, R4`` silences only the listed rules.  Use it
for the rare sanctioned exception, never to mute a real hazard.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import PurePosixPath
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.lint.findings import Finding

#: Posix path suffixes where R1 does not apply — the one sanctioned
#: construction site for generators (``RngStreams`` and its salts).
R1_EXEMPT_SUFFIXES: Tuple[str, ...] = ("engine/rng.py",)

#: Directory names whose files count as dtype-strict hot paths for R2.
R2_STRICT_DIRS: FrozenSet[str] = frozenset({"engine", "quantization"})

#: Paths where R2 additionally polices silent float64 *upcasts*: the
#: integer-native kernels (the gather loop and its drive, which the code
#: store runs over uint8/uint16 codes, the code store itself, and the
#: batched engine whose qbatched path carries frozen codes) plus the whole
#: quantization layer, where a dtype-less
#: ``np.asarray``/``np.array`` or an ``astype(float)`` quietly promotes
#: uint8/uint16 code arrays back to full-precision floats — the exact
#: round trip the integer tier exists to eliminate.
R2_INT_NATIVE_SUFFIXES: Tuple[str, ...] = (
    "engine/event_train.py",
    "engine/qevent.py",
    "engine/batched.py",
)
R2_INT_NATIVE_DIRS: FrozenSet[str] = frozenset({"quantization"})

_PRAGMA_RE = re.compile(r"#\s*lint-ok(?:\s*:\s*(?P<rules>[A-Za-z0-9,\s]+))?")


def suppressed_rules(source: str) -> Dict[int, Optional[FrozenSet[str]]]:
    """Per-line pragma map: line number -> ``None`` (all rules) or a rule set.

    Only real ``#`` comments count (tokenizer COMMENT tokens), so pragma
    *text* quoted in a docstring (this module's own rule docs, say)
    neither suppresses a finding nor is reported as a stale pragma.
    """
    out: Dict[int, Optional[FrozenSet[str]]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _PRAGMA_RE.search(token.string)
            if match is None:
                continue
            rules = match.group("rules")
            if rules is None:
                out[token.start[0]] = None
            else:
                out[token.start[0]] = frozenset(
                    r.strip().upper() for r in rules.split(",") if r.strip()
                )
    except tokenize.TokenError:
        pass  # unterminated construct: the parse already failed loudly
    return out


def apply_suppressions(
    findings: List[Finding], pragmas: Dict[int, Optional[FrozenSet[str]]]
) -> Tuple[List[Finding], FrozenSet[int]]:
    """Filter *findings* through a pragma map; also return the used lines.

    A pragma line is *used* when it suppressed at least one finding — the
    complement (under the full rule set) is what W0 reports as stale.
    """
    kept: List[Finding] = []
    used: set = set()
    for finding in findings:
        scope = pragmas.get(finding.line, _PRAGMA_MISS)
        if scope is _PRAGMA_MISS or (scope is not None and finding.rule not in scope):
            kept.append(finding)
        else:
            used.add(finding.line)
    return kept, frozenset(used)


#: Sentinel distinguishing "no pragma on this line" from "bare pragma".
_PRAGMA_MISS: FrozenSet[str] = frozenset({"\x00no-pragma"})


class _RuleVisitor(ast.NodeVisitor):
    """Shared plumbing: collects findings tagged with one rule id."""

    rule = ""

    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: List[Finding] = []

    def flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=self.rule,
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                message=message,
            )
        )


# ---------------------------------------------------------------------------
# R1: explicit, function-scoped randomness
# ---------------------------------------------------------------------------


class R1RandomConstruction(_RuleVisitor):
    """No seedless/module-level ``np.random`` construction, no legacy API.

    Resolves ``np.random.<fn>`` through import aliases (``import numpy as
    np``, ``from numpy import random as npr``, ``from numpy.random import
    default_rng``) so renaming the module does not evade the rule.
    """

    rule = "R1"

    #: np.random attributes that are legitimate to *call* when seeded:
    #: generator/bit-generator constructors and seed containers.  Anything
    #: else on the module is the legacy global-state sampling API.
    ALLOWED = frozenset(
        {
            "default_rng",
            "Generator",
            "SeedSequence",
            "BitGenerator",
            "PCG64",
            "PCG64DXSM",
            "Philox",
            "SFC64",
            "MT19937",
        }
    )
    #: Constructors whose *module-level* execution bakes a generator into
    #: import time, hiding it from seed control.
    GENERATOR_CTORS = frozenset({"default_rng", "Generator", "RandomState"})

    def __init__(self, path: str) -> None:
        super().__init__(path)
        self._depth = 0
        self._np_aliases = {"np", "numpy"}
        self._random_aliases: set = set()
        self._fn_aliases: Dict[str, str] = {}

    # -- import alias tracking ---------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "numpy":
                self._np_aliases.add(alias.asname or "numpy")
            elif alias.name == "numpy.random":
                if alias.asname:
                    self._random_aliases.add(alias.asname)
                else:
                    self._np_aliases.add("numpy")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "numpy":
            for alias in node.names:
                if alias.name == "random":
                    self._random_aliases.add(alias.asname or "random")
        elif node.module == "numpy.random":
            for alias in node.names:
                self._fn_aliases[alias.asname or alias.name] = alias.name
        self.generic_visit(node)

    # -- scope tracking ----------------------------------------------
    def _enter_function(self, node: ast.AST) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = _enter_function
    visit_AsyncFunctionDef = _enter_function
    visit_Lambda = _enter_function

    # -- the rule ----------------------------------------------------
    def _resolve(self, func: ast.expr) -> Optional[str]:
        """The ``np.random`` attribute this call targets, if any."""
        if isinstance(func, ast.Attribute):
            value = func.value
            if (
                isinstance(value, ast.Attribute)
                and value.attr == "random"
                and isinstance(value.value, ast.Name)
                and value.value.id in self._np_aliases
            ):
                return func.attr
            if isinstance(value, ast.Name) and value.id in self._random_aliases:
                return func.attr
        elif isinstance(func, ast.Name):
            return self._fn_aliases.get(func.id)
        return None

    @staticmethod
    def _seedless(node: ast.Call) -> bool:
        args = [
            a
            for a in node.args
            if not (isinstance(a, ast.Constant) and a.value is None)
        ]
        kwargs = [
            k
            for k in node.keywords
            if k.arg == "seed"
            and not (isinstance(k.value, ast.Constant) and k.value.value is None)
        ]
        return not args and not kwargs

    def visit_Call(self, node: ast.Call) -> None:
        fn = self._resolve(node.func)
        if fn is not None:
            if fn == "RandomState":
                self.flag(
                    node,
                    "legacy np.random.RandomState: use np.random.default_rng "
                    "with an explicit seed",
                )
            elif fn == "seed":
                self.flag(
                    node,
                    "np.random.seed mutates hidden global state: seed an "
                    "explicit Generator instead",
                )
            elif fn not in self.ALLOWED:
                self.flag(
                    node,
                    f"np.random.{fn} draws from hidden global state: use an "
                    "explicitly seeded np.random.Generator",
                )
            elif fn == "default_rng" and self._seedless(node):
                self.flag(
                    node,
                    "np.random.default_rng() without a seed: require a "
                    "caller-supplied Generator or derive the seed from "
                    "config/RngStreams",
                )
            elif fn in self.GENERATOR_CTORS and self._depth == 0:
                self.flag(
                    node,
                    f"module-level np.random.{fn} construction: build "
                    "generators inside functions from explicit seeds "
                    "(RngStreams or config)",
                )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# R2: dtype discipline in hot paths
# ---------------------------------------------------------------------------

#: Allocation functions and the positional index their dtype lives at.
_ALLOC_DTYPE_POS = {"zeros": 1, "ones": 1, "empty": 1, "full": 2}

#: Names array modules are conventionally bound to (numpy, the ``xp``
#: backend indirection, CuPy).  ``*_like`` allocators inherit their dtype
#: from the prototype and are exempt.
_ARRAY_MODULES = frozenset({"np", "numpy", "xp", "cp", "cupy"})


def _dtype_tag(expr: ast.expr) -> Optional[str]:
    """``"float32"``/``"float64"`` when *expr* names that dtype, else None."""
    if isinstance(expr, ast.Attribute) and expr.attr in ("float32", "float64"):
        return expr.attr
    if isinstance(expr, ast.Constant) and expr.value in ("float32", "float64"):
        return str(expr.value)
    return None


def _expression_precision(node: ast.AST) -> Optional[str]:
    """The float precision *node* explicitly pins its result to, if any."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Attribute):
        if (
            isinstance(func.value, ast.Name)
            and func.value.id in _ARRAY_MODULES
            and func.attr in ("float32", "float64")
        ):
            return func.attr
        if func.attr == "astype" and node.args:
            return _dtype_tag(node.args[0])
    for kw in node.keywords:
        if kw.arg == "dtype":
            return _dtype_tag(kw.value)
    return None


#: ``astype`` arguments that silently select a platform-default width.
_BUILTIN_CAST_NAMES = frozenset({"float", "int"})


def _builtin_cast_tag(expr: ast.expr) -> Optional[str]:
    """``"float"``/``"int"`` when *expr* is the builtin or its string name."""
    if isinstance(expr, ast.Name) and expr.id in _BUILTIN_CAST_NAMES:
        return expr.id
    if isinstance(expr, ast.Constant) and expr.value in _BUILTIN_CAST_NAMES:
        return str(expr.value)
    return None


class R2DtypeDiscipline(_RuleVisitor):
    """Allocations in hot paths must pin a dtype; no 32/64-bit mixing.

    With *int_native* set (the qfused kernel and the quantization layer),
    additionally flags silent float64 upcasts: dtype-less
    ``np.asarray``/``np.array`` conversions and ``astype(float)`` /
    ``astype(int)`` casts, which widen integer code arrays to a
    platform-default dtype without saying so.
    """

    rule = "R2"

    def __init__(self, path: str, int_native: bool = False) -> None:
        super().__init__(path)
        self._seen_binops: set = set()
        self._int_native = int_native

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in _ARRAY_MODULES
        ):
            dtype_pos = _ALLOC_DTYPE_POS.get(func.attr)
            if (
                dtype_pos is not None
                and len(node.args) <= dtype_pos
                and not any(kw.arg == "dtype" for kw in node.keywords)
            ):
                self.flag(
                    node,
                    f"{func.value.id}.{func.attr}(...) without an explicit "
                    "dtype in an engine/quantization hot path: pin the dtype "
                    "so precision does not drift with numpy defaults",
                )
            if (
                self._int_native
                and func.attr in ("asarray", "array")
                and len(node.args) <= 1
                and not any(kw.arg == "dtype" for kw in node.keywords)
            ):
                self.flag(
                    node,
                    f"{func.value.id}.{func.attr}(...) without an explicit "
                    "dtype in an integer-native path: the conversion silently "
                    "promotes Q-format code arrays (pass dtype=...)",
                )
        if self._int_native and isinstance(func, ast.Attribute) and func.attr == "astype":
            tag = _builtin_cast_tag(node.args[0]) if node.args else None
            if tag is not None:
                self.flag(
                    node,
                    f"astype({tag}) in an integer-native path selects the "
                    f"platform-default width (a silent float64/int64 upcast): "
                    f"name the numpy dtype explicitly",
                )
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        # Flag only the outermost expression of a mixed-precision chain.
        if id(node) not in self._seen_binops:
            precisions = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.BinOp):
                    self._seen_binops.add(id(sub))
                tag = _expression_precision(sub)
                if tag is not None:
                    precisions.add(tag)
            if {"float32", "float64"} <= precisions:
                self.flag(
                    node,
                    "implicit float32/float64 mixing in one expression: cast "
                    "both operands to a single explicit dtype",
                )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# R4: default-argument hygiene
# ---------------------------------------------------------------------------

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
_MUTABLE_BUILTINS = frozenset({"list", "dict", "set", "bytearray"})
_MUTABLE_NP_CTORS = frozenset({"array", "zeros", "ones", "empty", "full"})


def _allows_none(annotation: ast.expr) -> bool:
    text = ast.unparse(annotation)
    return (
        "Optional" in text
        or "None" in text
        or text in ("Any", "typing.Any", "object")
    )


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in _MUTABLE_BUILTINS:
            return True
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in _ARRAY_MODULES
            and func.attr in _MUTABLE_NP_CTORS
        ):
            return True
    return False


class R4DefaultArguments(_RuleVisitor):
    """Mutable defaults and ``x: T = None`` mis-annotations."""

    rule = "R4"

    def _check_one(self, arg: ast.arg, default: ast.expr) -> None:
        if _is_mutable_default(default):
            self.flag(
                default,
                f"mutable default for parameter {arg.arg!r}: default to None "
                "and construct inside the function",
            )
        elif (
            isinstance(default, ast.Constant)
            and default.value is None
            and arg.annotation is not None
            and not _allows_none(arg.annotation)
        ):
            self.flag(
                arg,
                f"parameter {arg.arg!r} is annotated "
                f"{ast.unparse(arg.annotation)!r} but defaults to None: "
                "annotate Optional[...]",
            )

    def _check_function(self, node: ast.AST) -> None:
        args = node.args  # type: ignore[attr-defined]
        positional = list(args.posonlyargs) + list(args.args)
        defaults = list(args.defaults)
        for arg, default in zip(positional[len(positional) - len(defaults):], defaults):
            self._check_one(arg, default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                self._check_one(arg, default)
        self.generic_visit(node)

    visit_FunctionDef = _check_function
    visit_AsyncFunctionDef = _check_function


# ---------------------------------------------------------------------------
# R5: exception-handling hygiene
# ---------------------------------------------------------------------------

#: Directory whose modules may catch broadly: the fault-tolerance layer is
#: the sanctioned isolation boundary (worker cells, degradation, injected
#: faults must be containable whatever their type).
R5_EXEMPT_DIRS: FrozenSet[str] = frozenset({"resilience"})

_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _names_broad_exception(expr: ast.expr) -> bool:
    """Whether *expr* (an ``except`` clause type) names Exception itself."""
    if isinstance(expr, ast.Name):
        return expr.id in _BROAD_EXCEPTIONS
    if isinstance(expr, ast.Attribute):
        return expr.attr in _BROAD_EXCEPTIONS
    if isinstance(expr, ast.Tuple):
        return any(_names_broad_exception(el) for el in expr.elts)
    return False


class R5ExceptionHygiene(_RuleVisitor):
    """No bare ``except:`` / blanket ``except Exception`` handlers.

    A handler that swallows every exception hides real defects (a typo'd
    attribute reads as "corrupt checkpoint") and, for bare ``except:``,
    even ``KeyboardInterrupt``.  Recovery code must name what it expects.
    The ``repro.resilience`` package is exempt — fault isolation boundaries
    there must, by design, contain arbitrary failures — and individual
    sanctioned sites elsewhere carry a ``# lint-ok: R5`` pragma.  Handlers
    whose last statement is a bare ``raise`` (cleanup-then-rethrow, the
    atomic-write pattern) swallow nothing and are not flagged.
    """

    rule = "R5"

    @staticmethod
    def _reraises(node: ast.ExceptHandler) -> bool:
        return bool(
            node.body
            and isinstance(node.body[-1], ast.Raise)
            and node.body[-1].exc is None
        )

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self._reraises(node):
            self.generic_visit(node)
            return
        if node.type is None:
            self.flag(
                node,
                "bare 'except:' catches everything including KeyboardInterrupt "
                "and SystemExit: name the exception types this handler expects",
            )
        elif _names_broad_exception(node.type):
            self.flag(
                node,
                "blanket 'except Exception' outside repro.resilience: catch "
                "the specific error types, or move the isolation boundary "
                "into the resilience package (pragma 'lint-ok: R5' for "
                "sanctioned sites)",
            )
        self.generic_visit(node)


# ---------------------------------------------------------------------------
# per-module driver
# ---------------------------------------------------------------------------


def _r1_applies(path: PurePosixPath) -> bool:
    return not str(path).endswith(R1_EXEMPT_SUFFIXES)


def _r2_applies(path: PurePosixPath) -> bool:
    return bool(R2_STRICT_DIRS.intersection(path.parts))


def _r2_int_native(path: PurePosixPath) -> bool:
    return str(path).endswith(R2_INT_NATIVE_SUFFIXES) or bool(
        R2_INT_NATIVE_DIRS.intersection(path.parts)
    )


def _r5_applies(path: PurePosixPath) -> bool:
    return not R5_EXEMPT_DIRS.intersection(path.parts)


def check_module_raw(tree: ast.AST, path: str) -> List[Finding]:
    """Run every syntactic rule over one parsed module, pragma-blind.

    *path* is the display path (posix separators); it decides rule
    applicability (R1 exemption for ``engine/rng.py``, R2 scoping to
    engine/quantization directories) and is stamped into the findings.
    The runner applies pragma suppression afterwards so it can also track
    which pragmas were actually used (the W0 stale-pragma check).
    """
    posix = PurePosixPath(path)
    visitors: List[_RuleVisitor] = [R4DefaultArguments(path)]
    if _r1_applies(posix):
        visitors.append(R1RandomConstruction(path))
    if _r2_applies(posix):
        visitors.append(R2DtypeDiscipline(path, int_native=_r2_int_native(posix)))
    if _r5_applies(posix):
        visitors.append(R5ExceptionHygiene(path))

    findings: List[Finding] = []
    for visitor in visitors:
        visitor.visit(tree)
        findings.extend(visitor.findings)
    return sorted(findings, key=Finding.sort_key)


def check_module(tree: ast.AST, source: str, path: str) -> List[Finding]:
    """Run every syntactic rule over one parsed module, pragmas applied."""
    findings, _ = apply_suppressions(
        check_module_raw(tree, path), suppressed_rules(source)
    )
    return sorted(findings, key=Finding.sort_key)
