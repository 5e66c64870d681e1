"""AST-based repo invariant linter (the ``static-analysis`` CI gate).

The codebase's determinism guarantees — byte-identical reruns under
fixed seeds, engine-clock-only time, routing tables written exclusively
by verified builders — were previously enforced by convention.  This
linter enforces them statically, with eight repo-specific rules:

``STA001`` *engine clock only*
    No wall-clock reads (``time.time``, ``time.perf_counter``,
    ``time.monotonic``, ...) anywhere in ``repro`` except the one
    sanctioned source, :mod:`repro.util.wallclock`.  Simulation and
    fault logic must use the engine clock; anything needing elapsed
    wall time takes an injectable clock.

``STA002`` *RNG through repro.util.rng*
    No direct ``numpy.random`` constructors or stdlib ``random`` calls
    outside :mod:`repro.util.rng` — every stochastic component takes an
    explicit seeded source, which is what keeps experiment campaigns
    paired across algorithms and reproducible across runs.

``STA003`` *routing tables are builder-only*
    No writes to the routing-table attributes (``TABLE_ATTRIBUTES``)
    outside the builder modules (``routing/base.py``,
    ``routing/table.py``, ``routing/serialization.py``,
    ``faults/controller.py``).  The engine fast path caches rows from
    these tables; a stray in-place mutation would silently desynchronise
    the cache.  The arrays are read-only at run time too.

``STA004`` *builders verify*
    Every ``build_*_routing`` function returning a ``RoutingFunction``
    must pass its result through ``verify_routing`` — the Theorem-1
    gate no construction is allowed to skip.

``STA005`` *no unverified deserialization*
    No calls to the serialization loaders (``routing_from_json``,
    ``load_routing``, ``tree_from_json``, ``load_tree``) with their
    re-verification flag literally disabled (``verify=False`` /
    ``validate=False``) outside :mod:`repro.experiments.artifacts` —
    the artifact cache alone may skip re-verification, because it
    substitutes a per-entry payload checksum plus a content-addressed
    input-closure key for it.  Everywhere else, loaded bytes are
    untrusted and must pass the full Theorem-1 / Definition-2 checks.

``STA006`` *no numpy.random references outside repro.util.rng*
    STA002 bans *calling* into ``numpy.random``; this closes the
    loophole of smuggling the module or its constructors out by
    reference (``factory = np.random.default_rng``,
    ``make(np.random)``, ``from numpy.random import default_rng``
    then aliasing it) and constructing elsewhere.  Any ``numpy.random``
    reference outside :mod:`repro.util.rng` is flagged — except type
    annotations (``rng: np.random.Generator`` documents an *injected*
    source, exactly the sanctioned pattern) and the call targets STA002
    already reports.

``STA008`` *the independent checker imports no repro code*
    :mod:`repro.statics.check` re-validates certificates against the
    raw facts alone; importing any ``repro`` module there (absolute
    ``import repro...`` / ``from repro... import``, or a relative
    import, which resolves inside ``repro``) would let a builder bug
    certify itself.  The standard library and numpy are fine.  (The
    id ``STA007`` is retired and not reused.)

``STA009`` *one store instance per process*
    No ``ArtifactCache`` is constructed outside
    :mod:`repro.experiments.artifacts` (whose ``set_process_cache``
    binds the one instance per store) and
    :mod:`repro.experiments.parallel` (the stage executors' storeless
    in-memory cache).  A private instance beside the binding decodes
    from disk what the bound instance already holds.

Run as ``python -m repro.statics.lint [paths...]`` (defaults to the
installed ``repro`` package); exits non-zero when violations exist.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

#: modules allowed to read the wall clock (STA001)
WALLCLOCK_ALLOWED = frozenset({"repro/util/wallclock.py"})

#: modules allowed to construct raw random sources (STA002)
RNG_ALLOWED = frozenset({"repro/util/rng.py"})

#: modules allowed to write routing-table attributes (STA003)
TABLE_BUILDER_MODULES = frozenset(
    {
        "repro/routing/base.py",
        "repro/routing/table.py",
        "repro/routing/serialization.py",
        "repro/faults/controller.py",
    }
)

#: fully-qualified wall-clock calls banned by STA001
WALLCLOCK_BANNED = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
    }
)

#: dotted-prefixes banned by STA002 (call targets)
RNG_BANNED_PREFIXES = ("numpy.random.", "random.")

#: attributes only builders may assign (STA003)
TABLE_ATTRIBUTES = frozenset(
    {"candidate_sets", "next_idx", "first_idx", "first_hops", "next_hops", "channel_class"}
)

#: modules allowed to deserialize with re-verification disabled (STA005):
#: the artifact cache, whose entry checksums substitute for it
UNVERIFIED_DESERIALIZATION_ALLOWED = frozenset(
    {"repro/experiments/artifacts.py"}
)

#: serialization loaders guarded by STA005, with the positional index
#: of their verification flag
GUARDED_LOADERS: Dict[str, int] = {
    "routing_from_json": 1,
    "load_routing": 1,
    "tree_from_json": 1,
    "load_tree": 1,
}

#: modules that must import nothing from ``repro`` (STA008): the
#: independent checker shares no code with what it checks
INDEPENDENT_MODULES = frozenset({"repro/statics/check.py"})

#: modules allowed to construct an ``ArtifactCache`` (STA009)
STORE_CONSTRUCTION_ALLOWED = frozenset(
    {"repro/experiments/artifacts.py", "repro/experiments/parallel.py"}
)

_BUILDER_NAME = re.compile(r"^build_\w+_routing$")


@dataclass(frozen=True)
class Violation:
    """One linter finding."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted modules/objects they refer to."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    aliases[a.asname] = a.name
                else:
                    root = a.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for a in node.names:
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def _dotted_name(expr: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve *expr* to a fully-qualified dotted name, or ``None``.

    Only chains rooted in an imported module name resolve — attribute
    access on local variables (e.g. ``rng.integers``) stays opaque,
    which is exactly what keeps the rules free of false positives.
    """
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def _normalise(full: str) -> str:
    """Canonicalise aliases numpy exposes (``np`` -> ``numpy`` handled
    upstream; here we fold ``numpy.random.mtrand`` style paths)."""
    return full.replace("numpy.random.mtrand", "numpy.random")


def _is_numpy_random(full: str) -> bool:
    return full == "numpy.random" or full.startswith("numpy.random.")


def _annotation_node_ids(tree: ast.Module) -> set:
    """ids of every AST node inside a type annotation.

    Annotations are the sanctioned place to *name* ``np.random.Generator``
    (they document an injected source, they construct nothing), so
    STA006 exempts them wholesale.
    """
    roots: List[ast.expr] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                if arg is not None and arg.annotation is not None:
                    roots.append(arg.annotation)
            if node.returns is not None:
                roots.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    ids: set = set()
    for root in roots:
        for sub in ast.walk(root):
            ids.add(id(sub))
    return ids


def _function_returns_routing(node: ast.FunctionDef) -> bool:
    ann = node.returns
    if ann is None:
        return False
    if isinstance(ann, ast.Name):
        return ann.id == "RoutingFunction"
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        return ann.value.strip('"') == "RoutingFunction"
    if isinstance(ann, ast.Attribute):
        return ann.attr == "RoutingFunction"
    return False


def lint_source(
    source: str, path: str = "<string>", module_rel: Optional[str] = None
) -> List[Violation]:
    """Lint one module's *source*; *module_rel* is its ``repro/...``-relative
    posix path, used to apply the per-rule allow-lists."""
    rel = module_rel if module_rel is not None else _module_rel(Path(path))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Violation(
                path=path,
                line=exc.lineno or 0,
                col=exc.offset or 0,
                code="STA000",
                message=f"syntax error: {exc.msg}",
            )
        ]
    aliases = _import_aliases(tree)
    out: List[Violation] = []

    def add(node: ast.AST, code: str, message: str) -> None:
        out.append(
            Violation(
                path=path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
            )
        )

    # --- STA001 / STA002: banned call targets --------------------------
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        full = _dotted_name(node.func, aliases)
        if full is None:
            continue
        full = _normalise(full)
        if full in WALLCLOCK_BANNED and rel not in WALLCLOCK_ALLOWED:
            add(
                node,
                "STA001",
                f"wall-clock call {full}() — use the engine clock, or an "
                f"injectable clock from repro.util.wallclock",
            )
        if (
            any(full.startswith(p) for p in RNG_BANNED_PREFIXES)
            and rel not in RNG_ALLOWED
        ):
            add(
                node,
                "STA002",
                f"direct RNG construction {full}() — take an explicit "
                f"seeded source via repro.util.rng instead",
            )

    # --- STA006: numpy.random references beyond call targets -----------
    if rel not in RNG_ALLOWED:
        exempt = _annotation_node_ids(tree)
        # the call targets STA002 already reports: exempt the func
        # expression so one smuggled constructor yields one finding
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                full = _dotted_name(node.func, aliases)
                if full is not None and _is_numpy_random(_normalise(full)):
                    for sub in ast.walk(node.func):
                        exempt.add(id(sub))
        # ast.walk visits parents before their children, so flagging a
        # chain's outermost node and exempting its descendants reports
        # `np.random.default_rng` once, not three times
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if not isinstance(node, (ast.Name, ast.Attribute)):
                continue
            full = _dotted_name(node, aliases)
            if full is None:
                continue
            full = _normalise(full)
            if _is_numpy_random(full):
                add(
                    node,
                    "STA006",
                    f"reference to {full} outside repro.util.rng — "
                    f"randomness must flow through an explicitly seeded "
                    f"source (type annotations are exempt)",
                )
                for sub in ast.walk(node):
                    exempt.add(id(sub))

    # --- STA005: unverified deserialization ----------------------------
    if rel not in UNVERIFIED_DESERIALIZATION_ALLOWED:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                lname = func.attr
            elif isinstance(func, ast.Name):
                lname = func.id
            else:
                continue
            flag_idx = GUARDED_LOADERS.get(lname)
            if flag_idx is None:
                continue
            disabled = any(
                kw.arg in ("verify", "validate")
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for kw in node.keywords
            ) or (
                len(node.args) > flag_idx
                and isinstance(node.args[flag_idx], ast.Constant)
                and node.args[flag_idx].value is False
            )
            if disabled:
                add(
                    node,
                    "STA005",
                    f"{lname}() with re-verification disabled outside the "
                    f"artifact cache — only checksum-guarded cache entries "
                    f"may skip the Theorem-1/Definition-2 checks",
                )

    # --- STA003: routing-table writes ----------------------------------
    if rel not in TABLE_BUILDER_MODULES:
        for node in ast.walk(tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for tgt in targets:
                # unwrap subscript chains: obj.first_hops[i][j] = ...
                base = tgt
                while isinstance(base, ast.Subscript):
                    base = base.value
                if (
                    isinstance(base, ast.Attribute)
                    and base.attr in TABLE_ATTRIBUTES
                ):
                    add(
                        tgt,
                        "STA003",
                        f"write to routing table attribute "
                        f"'.{base.attr}' outside a builder module — "
                        f"tables are immutable once verified",
                    )

    # --- STA008: the independent checker imports no repro code --------
    if rel in INDEPENDENT_MODULES:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = ["." * node.level + (node.module or "")]
            else:
                continue
            for name in names:
                if name.startswith(".") or name.split(".")[0] == "repro":
                    add(
                        node,
                        "STA008",
                        f"import of {name} in the independent checker — it "
                        f"may use only the standard library and numpy, so a "
                        f"builder bug cannot certify itself",
                    )

    # --- STA009: one store instance per process ------------------------
    if rel not in STORE_CONSTRUCTION_ALLOWED:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "ArtifactCache" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                add(
                    node,
                    "STA009",
                    "ArtifactCache constructed outside the artifact store and "
                    "the stage executors — bind the store with set_process_cache()",
                )

    # --- STA004: builders must verify ----------------------------------
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        if not _BUILDER_NAME.match(node.name):
            continue
        if not _function_returns_routing(node):
            continue
        mentions_verify = any(
            isinstance(sub, ast.Name) and sub.id == "verify_routing"
            for body_stmt in node.body
            for sub in ast.walk(body_stmt)
        )
        if not mentions_verify:
            add(
                node,
                "STA004",
                f"builder {node.name}() returns a RoutingFunction without "
                f"passing it through verify_routing()",
            )
    return out


def _module_rel(path: Path) -> str:
    """The ``repro/...`` posix path of *path* (for the allow-lists)."""
    parts = path.as_posix().split("/")
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return path.name


def lint_file(
    path: Path, module_rel: Optional[str] = None
) -> List[Violation]:
    """Lint one file on disk."""
    path = Path(path)
    return lint_source(
        path.read_text(encoding="utf-8"),
        path=str(path),
        module_rel=module_rel,
    )


def lint_paths(paths: Iterable[Path]) -> List[Violation]:
    """Lint every ``*.py`` file under *paths* (files or directories)."""
    out: List[Violation] = []
    for root in paths:
        root = Path(root)
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for f in files:
            out.extend(lint_file(f))
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        args = [str(Path(__file__).resolve().parents[1])]
    violations = lint_paths(Path(a) for a in args)
    for v in violations:
        print(v.render())
    if violations:
        print(f"{len(violations)} invariant violation(s)")
        return 1
    print("invariant linter: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
