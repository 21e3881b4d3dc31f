"""Rule engine for ``repro lint`` (stdlib-``ast``, zero dependencies).

The engine is deliberately small: a **rule** is a function that receives
a :class:`ModuleContext` (parsed tree, source, config, scope map) and
reports :class:`Finding` objects; rules register themselves with the
:func:`rule` decorator the same way oracle families plug into their
runner.  ``run_lint`` walks a set of files/directories,
runs every registered rule whose *scope predicate* accepts the file, and
returns the findings partitioned into active and suppressed.

Suppression works at three anchors, checked in order:

* the flagged line itself carries ``# repro-lint: disable=<rule>``;
* the line directly above it does;
* the ``def`` line of the enclosing function does (function-wide).

Findings are identified for baseline purposes by ``(path, rule, symbol,
message)`` — deliberately *without* the line number, so unrelated edits
above a documented false positive do not churn the baseline file (see
:mod:`repro.analysis.baseline`).
"""

from __future__ import annotations

import ast
import hashlib
import io
import json
import os
import re
import tokenize
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from repro.analysis import callgraph as _callgraph
from repro.analysis.config import LintConfig

#: Bump to invalidate every analysis cache (format or semantics change).
ANALYSIS_VERSION = 1

#: Comment syntax recognised by the suppression scanner.
_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_, \-]+)")


@dataclass(frozen=True)
class Finding:
    """One discipline violation (or documented exception) in one file."""

    path: str
    line: int
    rule: str
    symbol: str
    message: str

    def key(self) -> tuple[str, str, str, str]:
        """Line-independent identity used by baseline matching."""
        return (self.path, self.rule, self.symbol, self.message)

    def sort_key(self) -> tuple[str, int, str, str]:
        return (self.path, self.line, self.rule, self.message)

    def format(self) -> str:
        where = f"{self.symbol}: " if self.symbol else ""
        return f"{self.path}:{self.line}: [{self.rule}] {where}{self.message}"

    def as_dict(self) -> dict[str, object]:
        return {"path": self.path, "line": self.line, "rule": self.rule,
                "symbol": self.symbol, "message": self.message}


@dataclass(frozen=True)
class Rule:
    """A registered rule: id, one-line summary, check, scope predicate."""

    rule_id: str
    summary: str
    check: Callable[["ModuleContext"], None]
    applies: Callable[[LintConfig, str], bool]


#: The registry the :func:`rule` decorator fills (id -> rule, insertion
#: ordered so reports are stable).
RULES: dict[str, Rule] = {}


def rule(rule_id: str, summary: str, *,
         applies: Callable[[LintConfig, str], bool] | None = None,
         ) -> Callable[[Callable[["ModuleContext"], None]],
                       Callable[["ModuleContext"], None]]:
    """Register a rule function under ``rule_id``.

    ``applies(config, relpath)`` gates which files the rule sees; the
    default accepts every file.  Registering the same id twice is a
    programming error and raises immediately.
    """
    if not re.fullmatch(r"[a-z][a-z0-9\-]*", rule_id):
        raise ValueError(f"rule id {rule_id!r} must be kebab-case")

    def register(check: Callable[["ModuleContext"], None],
                 ) -> Callable[["ModuleContext"], None]:
        if rule_id in RULES:
            raise ValueError(f"rule {rule_id!r} already registered")
        RULES[rule_id] = Rule(
            rule_id=rule_id, summary=summary, check=check,
            applies=applies if applies is not None else lambda _c, _p: True)
        return check

    return register


@dataclass(frozen=True)
class ProjectRule:
    """A whole-project rule: runs once over every file's summary."""

    rule_id: str
    summary: str
    check: Callable[["ProjectContext"], None]


#: Registry for project-wide passes (lock-order, budget-propagation).
PROJECT_RULES: dict[str, ProjectRule] = {}


def project_rule(rule_id: str, summary: str,
                 ) -> Callable[[Callable[["ProjectContext"], None]],
                               Callable[["ProjectContext"], None]]:
    """Register a project-wide rule (same id rules as :func:`rule`)."""
    if not re.fullmatch(r"[a-z][a-z0-9\-]*", rule_id):
        raise ValueError(f"rule id {rule_id!r} must be kebab-case")

    def register(check: Callable[["ProjectContext"], None],
                 ) -> Callable[["ProjectContext"], None]:
        if rule_id in PROJECT_RULES or rule_id in RULES:
            raise ValueError(f"rule {rule_id!r} already registered")
        PROJECT_RULES[rule_id] = ProjectRule(
            rule_id=rule_id, summary=summary, check=check)
        return check

    return register


def in_dirs(*tokens: str) -> Callable[[LintConfig, str], bool]:
    """Scope helper: accept files whose path contains ``/<token>/`` or
    ends with ``<token>`` (so ``queries/evaluator.py`` works too).

    ``LintConfig.extra_scope_tokens`` are merged in at match time, so a
    config can widen every rule's net without re-registering rules.
    """

    def predicate(config: LintConfig, relpath: str) -> bool:
        haystack = "/" + relpath.replace(os.sep, "/")
        scope = tokens + tuple(config.extra_scope_tokens)
        return any(f"/{token.strip('/')}/" in haystack
                   or haystack.endswith("/" + token.lstrip("/"))
                   for token in scope)

    return predicate


class _ScopeMap:
    """Innermost function/class qualname lookup by line number."""

    def __init__(self, tree: ast.Module) -> None:
        #: (start_line, end_line, qualname, is_function)
        self.spans: list[tuple[int, int, str, bool]] = []
        self._collect(tree.body, ())

    def _collect(self, body: Sequence[ast.stmt],
                 stack: tuple[str, ...]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                qual = stack + (node.name,)
                end = node.end_lineno if node.end_lineno is not None \
                    else node.lineno
                is_function = not isinstance(node, ast.ClassDef)
                self.spans.append((node.lineno, end, ".".join(qual),
                                   is_function))
                self._collect(node.body, qual)
            elif isinstance(node, (ast.If, ast.For, ast.While, ast.With,
                                   ast.Try)):
                self._collect(_compound_bodies(node), stack)

    def qualname(self, line: int) -> str:
        best = ""
        best_start = -1
        for start, end, qual, _is_function in self.spans:
            if start <= line <= end and start > best_start:
                best, best_start = qual, start
        return best

    def enclosing_def_lines(self, line: int) -> list[int]:
        """Def lines of every enclosing function, innermost included."""
        return [start for start, end, _qual, is_function in self.spans
                if is_function and start <= line <= end]


def owned_nodes(function: ast.FunctionDef | ast.AsyncFunctionDef,
                ) -> list[ast.AST]:
    """All descendant nodes of ``function`` except those belonging to
    nested function definitions — each function is its own check unit."""
    owned: list[ast.AST] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owned.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return owned


def _compound_bodies(node: ast.stmt) -> list[ast.stmt]:
    bodies: list[ast.stmt] = []
    for attr in ("body", "orelse", "finalbody"):
        bodies.extend(getattr(node, attr, []))
    for handler in getattr(node, "handlers", []):
        bodies.extend(handler.body)
    return bodies


def _collect_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number -> rule ids disabled on that line."""
    suppressions: dict[int, set[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(token.string)
            if match is None:
                continue
            rules = {part.strip() for part in match.group(1).split(",")
                     if part.strip()}
            suppressions.setdefault(token.start[0], set()).update(rules)
    except tokenize.TokenError:
        pass  # the ast parse will have raised a clearer error already
    return suppressions


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted import target (modules and members alike)."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                bound = name.asname if name.asname else \
                    name.name.split(".", 1)[0]
                target = name.name if name.asname else \
                    name.name.split(".", 1)[0]
                aliases[bound] = target
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.level == 0:
            for name in node.names:
                bound = name.asname if name.asname else name.name
                aliases[bound] = f"{node.module}.{name.name}"
    return aliases


class ModuleContext:
    """Everything a rule needs to check one parsed module."""

    def __init__(self, relpath: str, source: str, tree: ast.Module,
                 config: LintConfig) -> None:
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.config = config
        self.findings: list[Finding] = []
        self.scopes = _ScopeMap(tree)
        #: Names bound by imports, resolved to dotted targets —
        #: ``{"_maintenance": "repro.indexes.maintenance"}``.
        self.aliases = _collect_aliases(tree)

    def resolve_call_target(self, func: ast.expr) -> str | None:
        """Dotted path of a call target, imports resolved.

        ``time.time`` -> ``"time.time"`` (through any alias), ``from
        time import time; time()`` -> ``"time.time"``, unknown bases
        return ``None``.
        """
        parts: list[str] = []
        node: ast.expr = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = self.aliases.get(node.id)
        if base is None:
            return None
        parts.append(base)
        return ".".join(reversed(parts))

    def report(self, node: ast.AST, rule_id: str, message: str) -> None:
        line = getattr(node, "lineno", 1)
        self.findings.append(Finding(
            path=self.relpath, line=line, rule=rule_id,
            symbol=self.scopes.qualname(line), message=message))


@dataclass
class LintResult:
    """Outcome of one lint run: active findings plus bookkeeping."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Files whose per-file analysis was served from the content cache.
    cache_hits: int = 0
    #: Filled by project passes (``--graph``): call-graph stats plus the
    #: lock-order nodes/edges/cycles.
    graph_report: dict[str, object] = field(default_factory=dict)

    def sorted_findings(self) -> list[Finding]:
        return sorted(self.findings, key=Finding.sort_key)


@dataclass
class FileRecord:
    """Cacheable per-file analysis product: module-rule findings plus
    the suppression/scope/summary data the project passes need."""

    relpath: str
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    suppress_lines: dict[int, set[str]] = field(default_factory=dict)
    #: (start, end, qualname, is_function) — mirrors _ScopeMap.spans.
    scope_spans: list[tuple[int, int, str, bool]] = \
        field(default_factory=list)
    summary: dict[str, object] | None = None

    def qualname(self, line: int) -> str:
        best, best_start = "", -1
        for start, end, qual, _is_function in self.scope_spans:
            if start <= line <= end and start > best_start:
                best, best_start = qual, start
        return best

    def enclosing_def_lines(self, line: int) -> list[int]:
        return [start for start, end, _qual, is_function
                in self.scope_spans
                if is_function and start <= line <= end]

    def disabled_rules(self, line: int) -> set[str]:
        lines = [line, line - 1, *self.enclosing_def_lines(line)]
        disabled: set[str] = set()
        for anchor in lines:
            disabled |= self.suppress_lines.get(anchor, set())
        return disabled

    def to_payload(self) -> dict[str, object]:
        return {
            "relpath": self.relpath,
            "findings": [f.as_dict() for f in self.findings],
            "suppressed": [f.as_dict() for f in self.suppressed],
            "suppress_lines": {str(line): sorted(rules) for line, rules
                               in self.suppress_lines.items()},
            "scope_spans": [list(span) for span in self.scope_spans],
            "summary": self.summary,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "FileRecord":
        def _findings(key: str) -> list[Finding]:
            raw = payload.get(key, [])
            out: list[Finding] = []
            if isinstance(raw, list):
                for item in raw:
                    if isinstance(item, dict):
                        out.append(Finding(
                            path=str(item.get("path", "")),
                            line=int(item.get("line", 1)),
                            rule=str(item.get("rule", "")),
                            symbol=str(item.get("symbol", "")),
                            message=str(item.get("message", ""))))
            return out

        suppress_raw = payload.get("suppress_lines", {})
        suppress_lines: dict[int, set[str]] = {}
        if isinstance(suppress_raw, dict):
            for line_text, rules in suppress_raw.items():
                if isinstance(rules, list):
                    suppress_lines[int(line_text)] = \
                        {str(rule) for rule in rules}
        spans_raw = payload.get("scope_spans", [])
        spans: list[tuple[int, int, str, bool]] = []
        if isinstance(spans_raw, list):
            for span in spans_raw:
                if isinstance(span, list) and len(span) == 4:
                    spans.append((int(span[0]), int(span[1]),
                                  str(span[2]), bool(span[3])))
        summary = payload.get("summary")
        return cls(relpath=str(payload.get("relpath", "")),
                   findings=_findings("findings"),
                   suppressed=_findings("suppressed"),
                   suppress_lines=suppress_lines,
                   scope_spans=spans,
                   summary=summary if isinstance(summary, dict) else None)


class LintCache:
    """Content-hash cache of :class:`FileRecord` objects.

    One JSON file keyed by ``(ANALYSIS_VERSION, config fingerprint)``;
    entries map relpath -> (source sha256, record payload).  A warm
    ``repro lint`` run skips parsing and module rules for every
    unchanged file — the project passes recompose from the cached
    summaries, which is the cheap part.
    """

    def __init__(self, path: str, config: LintConfig) -> None:
        self.path = path
        self.key = f"{ANALYSIS_VERSION}:{config.fingerprint()}"
        self._entries: dict[str, dict[str, object]] = {}
        self._dirty = False
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            if isinstance(payload, dict) and \
                    payload.get("key") == self.key and \
                    isinstance(payload.get("files"), dict):
                self._entries = payload["files"]
        except (OSError, ValueError):
            self._entries = {}

    def get(self, relpath: str, sha: str) -> FileRecord | None:
        entry = self._entries.get(relpath)
        if not isinstance(entry, dict) or entry.get("sha") != sha:
            return None
        record = entry.get("record")
        if not isinstance(record, dict):
            return None
        return FileRecord.from_payload(record)

    def put(self, relpath: str, sha: str, record: FileRecord) -> None:
        self._entries[relpath] = {"sha": sha,
                                  "record": record.to_payload()}
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        payload = {"key": self.key, "files": self._entries}
        try:
            with open(self.path, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
        except OSError:
            pass  # a cache must never fail the run


class ProjectContext:
    """Everything a project-wide pass needs: config, per-file records,
    and the recomposed call graph."""

    def __init__(self, config: LintConfig,
                 records: Mapping[str, FileRecord]) -> None:
        self.config = config
        self.records = dict(records)
        summaries = [record.summary for record in records.values()
                     if record.summary is not None]
        self.graph = _callgraph.ProjectGraph(
            summaries, config.receiver_roles)
        self.findings: list[Finding] = []
        self.graph_report: dict[str, object] = {
            "call_graph": self.graph.stats()}

    def report(self, path: str, line: int, rule_id: str,
               message: str) -> None:
        record = self.records.get(path)
        symbol = record.qualname(line) if record is not None else ""
        self.findings.append(Finding(path=path, line=line, rule=rule_id,
                                     symbol=symbol, message=message))


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    """Expand files/directories into ``.py`` file paths (sorted walk)."""
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(name for name in dirnames
                                     if name != "__pycache__")
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            yield path


def _relative_path(path: str) -> str:
    """Repo-relative posix path when under the CWD, else as given."""
    cwd = os.getcwd()
    absolute = os.path.abspath(path)
    if absolute.startswith(cwd + os.sep):
        return os.path.relpath(absolute, cwd).replace(os.sep, "/")
    return path.replace(os.sep, "/")


def _build_record(path: str, relpath: str, source: str,
                  config: LintConfig,
                  rule_ids: Sequence[str] | None) -> FileRecord:
    """Parse one file, run the (selected) module rules, and collect the
    suppression/scope/summary data the project passes reuse."""
    record = FileRecord(relpath=relpath)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        record.findings.append(Finding(
            path=relpath, line=exc.lineno or 1, rule="parse-error",
            symbol="", message=f"file does not parse: {exc.msg}"))
        return record
    context = ModuleContext(relpath, source, tree, config)
    selected = (RULES.values() if rule_ids is None
                else [RULES[rule_id] for rule_id in rule_ids])
    for registered in selected:
        if registered.applies(config, relpath):
            registered.check(context)
    record.suppress_lines = _collect_suppressions(source)
    record.scope_spans = list(context.scopes.spans)
    record.summary = _callgraph.summarize_module(
        relpath, tree, context.aliases)
    for finding in context.findings:
        disabled = record.disabled_rules(finding.line)
        if finding.rule in disabled or "all" in disabled:
            record.suppressed.append(finding)
        else:
            record.findings.append(finding)
    return record


def lint_file(path: str, config: LintConfig,
              rule_ids: Sequence[str] | None = None) -> LintResult:
    """Run the (selected) module rules over one file."""
    with open(path, encoding="utf-8") as handle:
        source = handle.read()
    record = _build_record(path, _relative_path(path), source, config,
                           rule_ids)
    return LintResult(findings=list(record.findings),
                      suppressed=list(record.suppressed),
                      files_checked=1)


def run_lint(paths: Iterable[str], config: LintConfig | None = None,
             rule_ids: Sequence[str] | None = None,
             cache_path: str | None = None) -> LintResult:
    """Lint every python file under ``paths``: module rules per file,
    then the project-wide passes over the recomposed call graph.

    ``cache_path`` enables the content-hash cache: unchanged files skip
    parsing and module rules entirely (used by the CLI; library callers
    opt in explicitly).  The cache is only consulted when every rule
    runs — a filtered ``rule_ids`` run never reads or writes it.
    """
    # Import for side effect: the rule modules register themselves.
    from repro.analysis import rules as _rules  # noqa: F401

    if config is None:
        config = LintConfig()
    module_rule_ids: Sequence[str] | None = None
    project_selected: list[ProjectRule] = list(PROJECT_RULES.values())
    if rule_ids is not None:
        unknown = [rule_id for rule_id in rule_ids
                   if rule_id not in RULES and
                   rule_id not in PROJECT_RULES]
        if unknown:
            known = sorted(set(RULES) | set(PROJECT_RULES))
            raise ValueError(f"unknown rule ids: {', '.join(unknown)}; "
                             f"known: {', '.join(known)}")
        module_rule_ids = [rule_id for rule_id in rule_ids
                           if rule_id in RULES]
        project_selected = [PROJECT_RULES[rule_id] for rule_id in rule_ids
                            if rule_id in PROJECT_RULES]

    cache: LintCache | None = None
    if cache_path is not None and rule_ids is None:
        cache = LintCache(cache_path, config)

    total = LintResult()
    records: dict[str, FileRecord] = {}
    for path in iter_python_files(paths):
        with open(path, encoding="utf-8") as handle:
            source = handle.read()
        relpath = _relative_path(path)
        record: FileRecord | None = None
        sha = ""
        if cache is not None:
            sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
            record = cache.get(relpath, sha)
            if record is not None:
                total.cache_hits += 1
        if record is None:
            record = _build_record(path, relpath, source, config,
                                   module_rule_ids)
            if cache is not None:
                cache.put(relpath, sha, record)
        records[relpath] = record
        total.findings.extend(record.findings)
        total.suppressed.extend(record.suppressed)
        total.files_checked += 1
    if cache is not None:
        cache.save()

    if project_selected and records:
        context = ProjectContext(config, records)
        for registered in project_selected:
            registered.check(context)
        total.graph_report = context.graph_report
        for finding in context.findings:
            record_for = records.get(finding.path)
            disabled = record_for.disabled_rules(finding.line) \
                if record_for is not None else set()
            if finding.rule in disabled or "all" in disabled:
                total.suppressed.append(finding)
            else:
                total.findings.append(finding)

    total.findings.sort(key=Finding.sort_key)
    total.suppressed.sort(key=Finding.sort_key)
    return total
