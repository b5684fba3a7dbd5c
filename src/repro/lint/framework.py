"""The ``repro lint`` static-analysis framework.

The analyzer enforces the repository's protocol-correctness contract
(DESIGN.md §5c): replicas are deterministic state machines, so the
execute/broadcast paths must not read wall clocks or entropy, iterate
unordered collections into ordered output, or do float arithmetic on
sequence numbers; crypto paths must compare secrets in constant time and
bound work on untrusted collections (KeyTrap); attacker-controlled
message fields must be verified before they reach a protocol sink;
and every n/t threshold must meet a declared quorum obligation.

One run (:func:`run_program`) reads and parses each file once
(:class:`Program`), runs the per-file AST rules (small :class:`Rule`
visitors registered with :func:`register`), then the whole-program
passes (taint, quorum; registered with :func:`register_pass`)
over one lazily built :class:`~repro.lint.index.ProgramIndex`, then
applies inline suppressions and reports stale ones (S101).  Every rule
lives in one registry (:data:`RULES`) and is scoped to module families
through :attr:`LintConfig.scope_patterns`.

Suppressions::

    risky_call()  # repro-lint: disable=D101
    # repro-lint: disable=D103        (on the line above also works)
    # repro-lint: disable-file=C304   (anywhere in the file: whole file)

A suppression comment should carry a justification after the rule list.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

if TYPE_CHECKING:
    from repro.lint.index import FunctionInfo, ProgramIndex

# -- scopes -------------------------------------------------------------------

#: Modules whose execute/broadcast paths feed the replicated state machine:
#: G1 (all honest replicas agree) requires them to be bit-deterministic.
SCOPE_DETERMINISTIC = "deterministic"
#: Modules holding key material / authenticators.
SCOPE_CRYPTO = "crypto"
#: Modules with network-facing message handlers (KeyTrap-style bounds).
SCOPE_HANDLERS = "handlers"
#: The protocol surface the Byzantine-taint pass defends.
SCOPE_TAINT = "taint"
#: Modules whose n/t threshold arithmetic the quorum pass proves.
SCOPE_QUORUM = "quorum"
#: Everything.
SCOPE_ALL = "all"

#: Scopes of the whole-program passes.  Unlike the AST-rule scopes they
#: also cover files outside the package (tests, corpus fixtures) that are
#: passed explicitly.
PASS_SCOPES = (SCOPE_TAINT, SCOPE_QUORUM)

DEFAULT_SCOPE_PATTERNS: Dict[str, Tuple[str, ...]] = {
    SCOPE_DETERMINISTIC: (
        "repro.core.replica",
        "repro.core.service",
        "repro.broadcast.*",
        "repro.dns.zone",
    ),
    SCOPE_CRYPTO: (
        "repro.crypto.*",
        "repro.dns.tsig",
        "repro.dns.dnssec",
        "repro.core.keytool",
    ),
    SCOPE_HANDLERS: (
        "repro.broadcast.*",
        "repro.crypto.protocols",
        "repro.core.replica",
    ),
    # Tooling (cli/lint/chaos) is out; the fault injector is the modeled
    # adversary, not the defended surface.
    SCOPE_TAINT: (
        "repro.broadcast.*",
        "repro.crypto.*",
        "repro.core.*",
        "repro.net.*",
        "repro.sim.*",
        "repro.dns.*",
        "!repro.core.faults",
    ),
    SCOPE_QUORUM: (
        "repro.broadcast.*",
        "repro.crypto.protocols",
        "repro.crypto.shoup",
    ),
    SCOPE_ALL: ("*",),
}


@dataclass
class LintConfig:
    """Analyzer configuration (normally loaded from pyproject.toml)."""

    scope_patterns: Dict[str, Tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_SCOPE_PATTERNS)
    )

    @classmethod
    def from_pyproject(cls, pyproject: Path) -> "LintConfig":
        """Read ``[tool.repro-lint] <scope>_modules`` for every scope."""
        config = cls()
        if not pyproject.is_file():
            return config
        try:
            import tomllib
        except ImportError:  # pragma: no cover - py3.10
            return config
        with open(pyproject, "rb") as handle:
            data = tomllib.load(handle)
        section = data.get("tool", {}).get("repro-lint", {})
        for scope in config.scope_patterns:
            key = f"{scope}_modules"
            if key in section:
                config.scope_patterns[scope] = tuple(section[key])
        return config

    def module_in_scope(self, module: str, scope: str) -> bool:
        """Whether ``scope``'s rules apply to ``module``.

        ``!pattern`` entries exclude and win over inclusions.  A file
        outside the package (module ``""``) is in the ``all`` scope and in
        every whole-program pass scope, never in a package-specific one.
        """
        if not module:
            return scope == SCOPE_ALL or scope in PASS_SCOPES
        patterns = self.scope_patterns.get(scope, ())
        if any(
            pat.startswith("!") and fnmatch.fnmatchcase(module, pat[1:])
            for pat in patterns
        ):
            return False
        return any(
            fnmatch.fnmatchcase(module, pat)
            for pat in patterns
            if not pat.startswith("!")
        )


# -- findings -----------------------------------------------------------------


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.rule} {self.message}"


#: Rule id of a file that does not parse (reported, never registered).
PARSE_ERROR_RULE = "E000"
#: Rule id of the stale-suppression finding.
STALE_SUPPRESSION_RULE = "S101"

# -- rule registry ------------------------------------------------------------


@dataclass(frozen=True)
class RuleInfo:
    """One registered rule, as the catalog and the SARIF log show it."""

    rule_id: str
    summary: str
    description: str
    scope: str
    level: str  # SARIF level: "error", "warning" or "note"
    check: str  # "ast", a whole-program pass name, or "framework"


#: Every rule of ``repro lint``, by id.
RULES: Dict[str, RuleInfo] = {}

#: The per-file AST rules, in registration order.
AST_RULES: List[Type["Rule"]] = []

#: Whole-program passes by scope name: each maps a :class:`Program` to
#: its raw (unsuppressed) findings.
PASSES: Dict[str, Callable[["Program"], List[Finding]]] = {}


def rule_table(
    check: str, scope: str, level: str, entries: Dict[str, Tuple[str, str]]
) -> Dict[str, RuleInfo]:
    """:class:`RuleInfo` for each ``id -> (summary, description)`` entry."""
    return {
        rule_id: RuleInfo(rule_id, summary, description, scope, level, check)
        for rule_id, (summary, description) in entries.items()
    }


def _add_rule(info: RuleInfo) -> None:
    if not info.rule_id:
        raise ValueError("rule must define rule_id")
    if info.rule_id in RULES:
        raise ValueError(f"duplicate rule id {info.rule_id}")
    RULES[info.rule_id] = info


_add_rule(
    RuleInfo(
        STALE_SUPPRESSION_RULE,
        "stale suppression comment",
        "A repro-lint suppression comment that no longer shields any "
        "finding, or that names no registered rule; delete it so the "
        "suppression set ratchets down.",
        SCOPE_ALL,
        "note",
        "framework",
    )
)


class Rule(ast.NodeVisitor):
    """Base class of the AST rules: one instance per (rule, file) pass."""

    rule_id: str = ""
    summary: str = ""
    scope: str = SCOPE_ALL
    level: str = "warning"

    def __init__(self, ctx: "FileContext") -> None:
        self.ctx = ctx

    def report(self, node: ast.AST, message: str) -> None:
        self.ctx.findings.append(
            Finding(
                self.rule_id,
                self.ctx.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0),
                message,
            )
        )

    def run(self, tree: ast.Module) -> None:
        self.visit(tree)


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding an AST rule to the registry."""
    _add_rule(
        RuleInfo(
            rule_cls.rule_id,
            rule_cls.summary,
            rule_cls.summary,
            rule_cls.scope,
            rule_cls.level,
            "ast",
        )
    )
    AST_RULES.append(rule_cls)
    return rule_cls


def register_pass(
    scope: str, entries: Dict[str, Tuple[str, str]]
) -> Callable[
    [Callable[["Program"], List[Finding]]], Callable[["Program"], List[Finding]]
]:
    """Decorator registering a whole-program pass and its rules; the
    pass is named after (and selects modules by) ``scope``."""

    def decorate(
        check: Callable[["Program"], List[Finding]]
    ) -> Callable[["Program"], List[Finding]]:
        for info in rule_table(scope, scope, "error", entries).values():
            _add_rule(info)
        PASSES[scope] = check
        return check

    return decorate


def load_rules() -> List[RuleInfo]:
    """Import every rule module (filling :data:`RULES`) and return the
    catalog sorted by id."""
    from repro.lint import (  # noqa: F401
        asyncsafety,
        cryptohygiene,
        determinism,
        quorum,
        taint,
    )

    return [RULES[rule_id] for rule_id in sorted(RULES)]


# -- suppressions -------------------------------------------------------------

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Z0-9, ]+)")
_SUPPRESS_FILE_RE = re.compile(r"#\s*repro-lint:\s*disable-file=([A-Z0-9, ]+)")


@dataclass
class Suppression:
    """One ``repro-lint: disable`` comment and its usage record.

    ``covered`` is the set of source lines the comment shields (empty for
    whole-file ``disable-file=`` comments, which shield everything);
    ``used`` accumulates the rule ids that actually had a finding
    suppressed, so stale comments can be reported and ratcheted away.
    """

    line: int
    rules: Tuple[str, ...]
    covered: Tuple[int, ...]  # () == whole file
    used: Set[str] = field(default_factory=set)

    def shields(self, rule: str, line: int) -> bool:
        return rule in self.rules and (not self.covered or line in self.covered)


def parse_suppression_comments(source: str) -> List[Suppression]:
    """All suppression comments in ``source``, in line order.

    A ``disable=`` comment covers its own line and, when it is the only
    thing on the line, the line below (so a suppression can sit above a
    long statement).  ``disable-file=`` covers the whole file.  The source
    is tokenized so only genuine comments count — a docstring *showing*
    the suppression syntax (like this module's) is not a suppression.
    """
    import io
    import tokenize

    out: List[Suppression] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type != tokenize.COMMENT:
                continue
            lineno = tok.start[0]
            match = _SUPPRESS_FILE_RE.search(tok.string)
            if match:
                rules = tuple(
                    r.strip() for r in match.group(1).split(",") if r.strip()
                )
                out.append(Suppression(line=lineno, rules=rules, covered=()))
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            rules = tuple(
                r.strip() for r in match.group(1).split(",") if r.strip()
            )
            covered = [lineno]
            if tok.line.lstrip().startswith("#"):
                covered.append(lineno + 1)  # comment-only line covers the next
            out.append(
                Suppression(line=lineno, rules=rules, covered=tuple(covered))
            )
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparseable tail: keep the comments collected so far
    return out


def stale_suppression_findings(
    ctx: "FileContext", active_rules: Iterable[str]
) -> List[Finding]:
    """S101 findings for suppression comments that shield nothing.

    A comment naming an id no rule is registered under is always
    reported: it can never shield anything.  A registered rule is judged
    only if it was among ``active_rules`` (the rules that ran).
    """
    registered = {info.rule_id for info in load_rules()}
    active = set(active_rules)
    out: List[Finding] = []
    for sup in ctx.suppressions:
        for rule in sup.rules:
            if rule not in registered:
                message = (
                    f"suppression names no registered rule '{rule}'; it "
                    "shields nothing — fix the id or delete it"
                )
            elif rule in sup.used or rule not in active:
                continue
            else:
                message = (
                    f"stale suppression: no {rule} finding is shielded by "
                    "this comment any more; delete it so the suppression "
                    "set ratchets down"
                )
            out.append(Finding(STALE_SUPPRESSION_RULE, ctx.path, sup.line, 0, message))
    return out


# -- import resolution --------------------------------------------------------


class ImportMap:
    """Resolve names/attribute chains to dotted import paths.

    ``import time`` makes ``time.time`` resolve to ``"time.time"``;
    ``from os import urandom as u`` makes ``u`` resolve to
    ``"os.urandom"``.  Unimported bare names resolve to themselves, which
    lets rules match builtins like ``hash``/``set`` unless shadowed.
    """

    def __init__(self, tree: ast.Module, module: str) -> None:
        self.aliases: Dict[str, str] = {}
        package = module.rsplit(".", 1)[0] if "." in module else module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.aliases[alias.asname] = alias.name
                    else:
                        top = alias.name.split(".", 1)[0]
                        self.aliases[top] = top
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    prefix = package
                    for _ in range(node.level - 1):
                        prefix = prefix.rsplit(".", 1)[0] if "." in prefix else ""
                    base = f"{prefix}.{base}".strip(".") if base else prefix
                for alias in node.names:
                    bound = alias.asname or alias.name
                    self.aliases[bound] = f"{base}.{alias.name}" if base else alias.name

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted path for a Name/Attribute chain, or None."""
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None


# -- the program and the run --------------------------------------------------


class FileContext:
    """One parsed file: everything a rule needs to analyze it."""

    def __init__(
        self,
        path: str,
        module: str,
        source: str,
        tree: ast.Module,
        config: LintConfig,
    ) -> None:
        self.path = path
        self.module = module
        self.source = source
        self.tree = tree
        self.config = config
        self.imports = ImportMap(tree, module)
        #: raw findings of the AST rules in the current run
        self.findings: List[Finding] = []
        self.suppressions: List[Suppression] = parse_suppression_comments(source)

    def suppress(self, rule: str, line: int) -> bool:
        """True if (rule, line) is shielded; marks the comment as used."""
        hit = False
        for sup in self.suppressions:
            if sup.shields(rule, line):
                sup.used.add(rule)
                hit = True
        return hit


class Program:
    """The input of one run: every file read and ``ast.parse``d once.

    The AST rules walk :attr:`contexts`; the whole-program passes share
    :attr:`index`, built on first use from the same trees.  ``files`` are
    ``(repo-relative path, dotted module or "", source)`` triples.
    """

    def __init__(
        self,
        files: Iterable[Tuple[str, str, str]],
        config: Optional[LintConfig] = None,
    ) -> None:
        self.config = config if config is not None else LintConfig()
        self.contexts: List[FileContext] = []
        self.errors: List[Finding] = []
        for path, module, source in files:
            try:
                tree = ast.parse(source, filename=path)
            except SyntaxError as exc:
                self.errors.append(
                    Finding(
                        PARSE_ERROR_RULE,
                        path,
                        exc.lineno or 1,
                        0,
                        f"syntax error: {exc.msg}",
                    )
                )
                continue
            self.contexts.append(FileContext(path, module, source, tree, self.config))
        self._by_path = {ctx.path: ctx for ctx in self.contexts}

    @classmethod
    def from_paths(
        cls, paths: Sequence[Path], root: Path, config: Optional[LintConfig] = None
    ) -> "Program":
        """Every ``.py`` file under ``paths``, with paths relative to ``root``."""
        files: List[Tuple[str, str, str]] = []
        for file_path in iter_python_files(paths):
            try:
                rel = file_path.resolve().relative_to(root.resolve())
            except ValueError:
                rel = file_path
            source = file_path.read_text(encoding="utf-8")
            files.append((rel.as_posix(), module_name_for_path(rel), source))
        return cls(files, config)

    @cached_property
    def index(self) -> "ProgramIndex":
        from repro.lint.index import ProgramIndex

        return ProgramIndex(self.contexts)

    def in_scope(self, fn: "FunctionInfo", scope: str) -> bool:
        """Scope test for an indexed function (the index keys a file
        outside the package by its path, which stands for module "")."""
        module = "" if fn.module == fn.path else fn.module
        return self.config.module_in_scope(module, scope)

    def shielded(self, finding: Finding) -> bool:
        """True if an inline suppression covers ``finding``; marks the
        comment as used."""
        ctx = self._by_path.get(finding.path)
        return ctx is not None and ctx.suppress(finding.rule, finding.line)


def run_program(
    program: Program, rules: Optional[Iterable[str]] = None
) -> List[Finding]:
    """One analyzer run over ``program``.

    Runs the per-file AST rules, then every whole-program pass, drops
    findings an inline suppression shields, and adds S101 for the
    comments that shielded nothing.  ``rules`` selects rule ids (default:
    every registered rule).
    """
    registered = load_rules()
    selected = {info.rule_id for info in registered} if rules is None else set(rules)
    raw = list(program.errors)
    for ctx in program.contexts:
        ctx.findings = []
        for sup in ctx.suppressions:
            sup.used.clear()
        for rule_cls in AST_RULES:
            if rule_cls.rule_id in selected and program.config.module_in_scope(
                ctx.module, rule_cls.scope
            ):
                rule_cls(ctx).run(ctx.tree)
        raw.extend(ctx.findings)
    for name, check in PASSES.items():
        if any(info.check == name and info.rule_id in selected for info in registered):
            raw.extend(f for f in check(program) if f.rule in selected)
    findings = [f for f in raw if not program.shielded(f)]
    if STALE_SUPPRESSION_RULE in selected:
        for ctx in program.contexts:
            findings.extend(stale_suppression_findings(ctx, selected))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def run_source(
    source: str,
    module: str = "",
    path: str = "<string>",
    config: Optional[LintConfig] = None,
    rules: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """:func:`run_program` over one source blob analyzed as ``module``."""
    return run_program(Program([(path, module, source)], config), rules)


# -- paths --------------------------------------------------------------------


def find_repo_root(start: Optional[Path] = None) -> Path:
    """Anchor the analyzer to the repository root, not the CWD.

    Walks up from ``start`` (default: the CWD) looking for the marker
    files the analyzer reads (``pyproject.toml`` / ``lint-baseline.json``)
    so ``repro lint`` behaves identically from any subdirectory.  Falls
    back to the installed package location (``src`` layout), then the
    start directory itself.
    """
    origin = (start or Path.cwd()).resolve()
    probe = origin if origin.is_dir() else origin.parent
    for candidate in (probe, *probe.parents):
        if (candidate / "pyproject.toml").is_file() or (
            candidate / "lint-baseline.json"
        ).is_file():
            return candidate
    package_dir = Path(__file__).resolve().parent.parent  # .../src/repro
    for candidate in package_dir.parents:
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return probe


def module_name_for_path(path: Path) -> str:
    """Dotted module path, derived from the ``src/`` layout.

    Files outside ``src/`` (tests, benchmarks, fixtures) get an empty
    module name: only ``all``-scoped AST rules apply to them, and the
    whole-program passes analyze them.
    """
    parts = path.with_suffix("").parts
    if "src" not in parts:
        return ""
    parts = parts[parts.index("src") + 1 :]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: Set[Path] = set()
    for path in paths:
        if path.is_dir():
            out.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            out.add(path)
    return sorted(out)
