"""Guard against dead definitions in ``src/repro`` and unused imports.

Every non-dunder function, method and class defined under
``src/repro`` must be named somewhere besides its own ``def``/``class``
line: a call, an import, an ``__all__`` entry, a test, an example, a
benchmark, or at least a comment.  A definition that nothing names is
code no path reaches, and it is deleted rather than kept "for later".

The check is lexical on purpose: a name counts as used when it occurs
as a whole word in any ``.py`` file under ``src/``, ``tests/``,
``examples/`` or ``benchmarks/`` more often than it is defined in
``src/repro``.  That over-approximates use (a same-named local
variable or attribute keeps a definition alive), so the guard never
flags live code, only definitions nobody can be reaching.

The import check is syntactic: a module-level import (also inside a
module-level ``if``/``try``) in ``src``, ``tests`` or ``examples`` must
bind a name that the module reads somewhere, as a name or inside a
string that parses as an expression (a quoted annotation, an
``__all__`` entry).  Package ``__init__.py`` files re-export by
importing, so they are exempt.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import repro

ROOT = Path(repro.__file__).resolve().parents[2]
SCANNED = ("src", "tests", "examples", "benchmarks")
IMPORT_SCANNED = ("src", "tests", "examples")
_WORD = re.compile(r"[A-Za-z_]\w*")


def _definitions():
    """``(name, path, line)`` of every non-dunder def/class in src/repro."""
    out = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    out.append((name, path, node.lineno))
    return out


def _word_counts():
    counts: Counter = Counter()
    for top in SCANNED:
        for path in (ROOT / top).rglob("*.py"):
            counts.update(_WORD.findall(path.read_text()))
    return counts


def test_every_definition_is_named_elsewhere():
    defs = _definitions()
    assert defs, "found no definitions under src/repro"
    defined = Counter(name for name, _path, _line in defs)
    words = _word_counts()
    dead = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, path, line in defs
        if words[name] <= defined[name]
    ]
    assert not dead, (
        "definitions named nowhere but at their own definition "
        "(delete them, or use them):\n" + "\n".join(dead)
    )


def _module_imports(body):
    """``(bound name, line)`` of every import among module-level *body*."""
    for node in body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno
        elif isinstance(node, (ast.If, ast.Try)):
            nested = node.body + node.orelse + getattr(node, "finalbody", [])
            for handler in getattr(node, "handlers", []):
                nested += handler.body
            yield from _module_imports(nested)


def _names_read(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return names


def test_every_module_import_is_used():
    unused = []
    for top in IMPORT_SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), str(path))
            read = _names_read(tree)
            unused += [
                f"{path.relative_to(ROOT)}:{line}: {name}"
                for name, line in _module_imports(tree.body)
                if name not in read
            ]
    assert not unused, "unused module-level imports:\n" + "\n".join(unused)
