"""Core of the invariant linter: contexts, rules, pragmas, the runner.

The linter is a thin frame around :mod:`ast`: every checked file becomes
one :class:`ModuleContext` (tree + raw lines + comment table + parent
links), every rule is a :class:`Rule` subclass registered under a stable
``RPR…`` code, and :func:`lint_paths` drives the lot and returns
:class:`Finding`\\ s.  Suppression is comment-driven::

    x = eval(blob)        # reprolint: disable=RPR004
    # reprolint: disable-file=RPR007   (anywhere in the file)

``disable=all`` works in both forms.  Rules never read pragmas — the
runner filters findings afterwards, so ``respect_pragmas=False`` (used by
the pragma tests themselves) sees everything.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

#: Code reserved for files the linter cannot parse at all.
PARSE_ERROR_CODE = "RPR000"

_PRAGMA_RE = re.compile(
    r"reprolint:\s*(?P<kind>disable(?:-file)?)\s*=\s*(?P<codes>[A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one location.

    Attributes:
        path: File the finding is in, as given to the runner.
        line: 1-based line of the offending node.
        col: 0-based column of the offending node.
        code: Stable rule code (``RPR001`` …).
        rule: Short rule name (``lock-discipline`` …).
        message: Human-readable explanation with the repair hint.
    """

    path: str
    line: int
    col: int
    code: str
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}: {self.code} [{self.rule}] {self.message}"

    @property
    def fingerprint(self) -> tuple[str, str, str]:
        """Line-independent identity used by the baseline file."""
        return (self.path, self.code, self.message)


class ModuleContext:
    """One parsed file plus everything rules need to inspect it.

    Args:
        path: Path the findings will report (tests may pass a *virtual*
            path so fixtures exercise path-scoped rules).
        source: Full text of the file.
        tree: Parsed ``ast.Module`` of ``source``.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.comments = _collect_comments(source)
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # -- structure -----------------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Walk from ``node``'s parent up to the module root."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    # -- path predicates ----------------------------------------------
    @property
    def posix_path(self) -> str:
        return Path(self.path).as_posix()

    @property
    def is_test_file(self) -> bool:
        """Under a ``tests`` directory, or a ``test_*.py`` / ``conftest.py`` file."""
        path = Path(self.path)
        return (
            "tests" in path.parts
            or path.name.startswith("test_")
            or path.name == "conftest.py"
        )

    # -- comments ------------------------------------------------------
    def comment_on(self, line: int) -> str:
        """The comment text (sans ``#``) on ``line``, or ``""``."""
        return self.comments.get(line, "")

    def declaration_comment(self, node: ast.stmt, pattern: re.Pattern[str]) -> re.Match | None:
        """Match ``pattern`` in the comment on the node's line or the line above."""
        for line in (node.lineno, node.lineno - 1):
            match = pattern.search(self.comments.get(line, ""))
            if match is not None:
                return match
        return None


def _collect_comments(source: str) -> dict[int, str]:
    comments: dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                comments[token.start[0]] = token.string.lstrip("#").strip()
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - parse guard
        pass
    return comments


# ----------------------------------------------------------------------
# Rules and the registry
# ----------------------------------------------------------------------
class Rule:
    """One invariant check over a :class:`ModuleContext`.

    Subclasses set the three class attributes and implement
    :meth:`check`; registration is explicit via :func:`register` so the
    code → rule mapping stays greppable.
    """

    code: str = "RPR999"
    name: str = "unnamed"
    description: str = ""

    def applies_to(self, context: ModuleContext) -> bool:
        """Path scoping hook; default: every file."""
        return True

    def check(self, context: ModuleContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, context: ModuleContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            rule=self.name,
            message=message,
        )


RULE_REGISTRY: dict[str, type[Rule]] = {}
"""Stable code → rule class; populated by the :func:`register` decorator."""


def register(rule_class: type[Rule]) -> type[Rule]:
    code = rule_class.code
    if not re.fullmatch(r"RPR\d{3}", code):
        raise ValueError(f"rule code must look like RPR001, got {code!r}")
    existing = RULE_REGISTRY.get(code)
    if existing is not None and existing is not rule_class:
        raise ValueError(f"duplicate rule code {code}: {existing.__name__} vs {rule_class.__name__}")
    RULE_REGISTRY[code] = rule_class
    return rule_class


def all_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in code order."""
    from . import rules as _rules  # noqa: F401  (registration side effect)

    return [RULE_REGISTRY[code]() for code in sorted(RULE_REGISTRY)]


# ----------------------------------------------------------------------
# Pragmas
# ----------------------------------------------------------------------
@dataclass
class PragmaTable:
    """Suppressions parsed from one file's comments."""

    file_codes: set[str] = field(default_factory=set)
    line_codes: dict[int, set[str]] = field(default_factory=dict)

    def suppresses(self, finding: Finding) -> bool:
        if "all" in self.file_codes or finding.code in self.file_codes:
            return True
        codes = self.line_codes.get(finding.line, ())
        return "all" in codes or finding.code in codes


def parse_pragmas(context: ModuleContext) -> PragmaTable:
    table = PragmaTable()
    for line, comment in context.comments.items():
        match = _PRAGMA_RE.search(comment)
        if match is None:
            continue
        codes = {code.strip() for code in match.group("codes").split(",") if code.strip()}
        if match.group("kind") == "disable-file":
            table.file_codes |= codes
        else:
            table.line_codes.setdefault(line, set()).update(codes)
    return table


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
def lint_source(
    source: str,
    path: str,
    rules: Sequence[Rule] | None = None,
    respect_pragmas: bool = True,
) -> list[Finding]:
    """Lint one in-memory source blob reported under ``path``.

    ``path`` may be *virtual* — the fixture tests feed snippets through
    with paths like ``src/repro/analysis/example.py`` to hit path-scoped
    rules — which is why this is the primitive :func:`lint_file` wraps.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Finding(
                path=path,
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                code=PARSE_ERROR_CODE,
                rule="parse-error",
                message=f"file does not parse: {exc.msg}",
            )
        ]
    context = ModuleContext(path, source, tree)
    active = [rule for rule in (rules if rules is not None else all_rules())
              if rule.applies_to(context)]
    findings = [finding for rule in active for finding in rule.check(context)]
    if respect_pragmas:
        pragmas = parse_pragmas(context)
        findings = [finding for finding in findings if not pragmas.suppresses(finding)]
    return sorted(findings, key=lambda f: (f.line, f.col, f.code))


def lint_file(
    path: str | Path,
    rules: Sequence[Rule] | None = None,
    respect_pragmas: bool = True,
) -> list[Finding]:
    """Lint one file on disk."""
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, str(path), rules=rules, respect_pragmas=respect_pragmas)


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Expand the CLI path arguments into the files to lint.

    Directories are walked recursively for ``*.py`` (sorted, hidden and
    ``__pycache__`` subtrees skipped); explicitly named files are taken
    verbatim whatever their extension — which is how the fixture corpus
    (``*.py.txt``, invisible to the directory walk and therefore to CI's
    ``lint src tests`` run) still gets linted by its tests.
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.exists():
            candidates = [path]
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
        for candidate in candidates:
            parts = candidate.parts
            if any(part == "__pycache__" or part.startswith(".") for part in parts):
                continue
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def lint_paths(
    paths: Sequence[str | Path],
    rules: Sequence[Rule] | None = None,
    respect_pragmas: bool = True,
    on_file: Callable[[Path], None] | None = None,
) -> list[Finding]:
    """Lint files and directories; returns all findings, path-sorted."""
    rules = list(rules if rules is not None else all_rules())
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        if on_file is not None:
            on_file(path)
        findings.extend(lint_file(path, rules=rules, respect_pragmas=respect_pragmas))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.code))
