"""Every name defined in ``src/`` is reached by code outside the tests.

The scan: a top-level function or class, or a non-dunder method, is
reached when its identifier appears as a whole word somewhere in
``src/``, ``benchmarks/``, ``perfbench/`` or ``examples/``.  Its own
definition does not count, nor does a line inside another unreached
definition, nor an import or ``__all__`` entry of a package
``__init__.py`` (a re-export is not a use).  The scan repeats until no
new name drops out, because deleting one name can orphan another.

A name only the tests reach belongs in ``tests/`` (a builder or an
oracle) or nowhere.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")
_WORD = re.compile(r"[A-Za-z_]\w*")


@dataclass(frozen=True)
class Definition:
    path: Path
    name: str
    def_line: int
    start: int
    end: int


def _definitions(path: Path, tree: ast.Module):
    def record(node):
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        return Definition(path, node.name, node.lineno, start, node.end_lineno)

    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        yield record(node)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield record(item)


def _reexport_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def unreached_names() -> list[Definition]:
    """The ``src/`` definitions no non-test code reaches, in file order."""
    definitions: list[Definition] = []
    # word -> every (path, line) it appears on, re-exports excluded
    uses: dict[str, list[tuple[Path, int]]] = defaultdict(list)
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source)
            skipped = set()
            if directory == "src":
                definitions.extend(_definitions(path, tree))
                if path.name == "__init__.py":
                    skipped = _reexport_lines(tree)
            for number, line in enumerate(source.splitlines(), 1):
                if number not in skipped:
                    for word in set(_WORD.findall(line)):
                        uses[word].append((path, number))

    unreached: set[Definition] = set()
    while True:
        dead = defaultdict(list)
        for d in unreached:
            dead[d.path].append((d.start, d.end))

        def reaches(d: Definition, path: Path, number: int) -> bool:
            if path == d.path and d.start <= number <= d.end:
                return False
            return not any(start <= number <= end for start, end in dead[path])

        dropped = {
            d
            for d in definitions
            if d not in unreached
            and not any(reaches(d, path, number) for path, number in uses[d.name])
        }
        if not dropped:
            break
        unreached |= dropped
    return sorted(unreached, key=lambda d: (str(d.path), d.def_line))


def test_every_src_name_has_a_non_test_caller():
    found = "\n".join(
        f"{d.path.relative_to(ROOT)}:{d.def_line} {d.name}" for d in unreached_names()
    )
    assert not found, f"reached only from tests (move to tests/ or delete):\n{found}"
