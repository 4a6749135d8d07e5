"""Which ``src/`` functions does a CLI command actually run?

Runs every ``python -m repro`` command in-process at the smoke config
(seed 7, scale 0.05, 8 weeks) under :func:`sys.setprofile`, and prints
each function or method defined under ``src/`` that none of them
called, grouped by module, followed by a summary line on stderr.  A
command that exits non-zero is named on stderr too.  The artifact
cache, the run store and the working directory live in a temporary
directory that is removed afterwards, so nothing outside it is read or
written.

Usage, from the repository root::

    python tools/runtime_reach.py

"Never ran" is a lead, not a verdict: some of these functions are
reached only from ``benchmarks/``, only at another config, or only on an
error path.  ``tests/test_reachability.py`` (a static word scan) stays
the tier-1 gate; this probe is not one.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SMOKE = "--seed 7 --scale 0.05 --weeks 8"
EXPERIMENTS = "headline table1 figure3 anomalies figure4 figure5 table2 mcluster13"

#: Every CLI command, in order; later ones read what earlier ones wrote
#: (the cached scenario, the stored run, manifest.json, the dumps).
COMMANDS: list[str] = [
    f"run {SMOKE} --cache --manifest --store-run --metrics-out metrics.json"
    " --events events.jsonl --log-json log.jsonl --timings --progress --out dump.jsonl",
    f"run {SMOKE} --cache",
    *(f"{name} {SMOKE} --cache" for name in EXPERIMENTS.split()),
    f"report {SMOKE} --cache",
    f"drift {SMOKE} --cache",
    "evasion --seed 7 --weeks 8",
    f"model export {SMOKE} --cache --out model.json",
    "model export --run manifest.json --cache --out replayed.json",
    "classify --model model.json --batch dump.jsonl --out classified.jsonl"
    " --metrics-out classify_metrics.json --events classify_events.jsonl",
    "classify --model model.json --event first.json",
    "cache ls",
    f"cache explain {SMOKE}",
    "cache gc",
    "obs list",
    "obs diff manifest.json manifest.json",
    "obs diff manifest.json manifest.json --json",
    "obs export manifest.json",
    "obs export manifest.json --format chrome --out trace.json",
    "obs export manifest.json --format flame",
    "obs health manifest.json --baseline manifest.json",
    "obs dashboard manifest.json",
    "obs dashboard events.jsonl",
    "obs query metric:lsh.clusters span:scenario --agg mean",
    "obs regress --include manifest.json",
    "obs validate --manifest manifest.json --metrics metrics.json --events events.jsonl"
    " --windows manifest.windows.json --model model.json",
]


def src_functions() -> dict[tuple[str, int], tuple[str, int]]:
    """Every function under ``src/``: (file, first line) -> (name, lines).

    The key matches a code object's ``(co_filename, co_firstlineno)``,
    which for a decorated function is its first decorator's line.
    ``lines`` counts the definition from its ``def`` line to its last.
    """
    functions = {}
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        parents = {
            child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            names, parent = [node.name], parents.get(node)
            while parent is not None:
                if isinstance(parent, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    names.append(parent.name)
                parent = parents.get(parent)
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            lines = node.end_lineno - node.lineno + 1
            functions[(str(path), first)] = (".".join(reversed(names)), lines)
    return functions


def run_commands() -> set[tuple[str, int]]:
    """Run :data:`COMMANDS` under the profiler; the code locations called."""
    called: set = set()

    def hook(frame, event, _arg):
        if event == "call":
            called.add(frame.f_code)

    with tempfile.TemporaryDirectory(prefix="runtime-reach-") as tmp:
        previous_cwd, previous_env = os.getcwd(), dict(os.environ)
        os.chdir(tmp)
        os.environ["REPRO_CACHE_DIR"] = str(Path(tmp) / "cache")
        os.environ["REPRO_RUNS_DIR"] = str(Path(tmp) / "runs")
        sys.path.insert(0, str(SRC))
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            from repro.cli import main

            for command in COMMANDS:
                if "--event " in command:
                    with open("dump.jsonl", encoding="utf-8") as dump:
                        Path("first.json").write_text(dump.readline(), encoding="utf-8")
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        code = main(command.split())
                    except SystemExit as exit_:
                        code = exit_.code
                if code:
                    print(f"exit {code}: repro {command}", file=sys.stderr)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(previous_cwd)
            os.environ.clear()
            os.environ.update(previous_env)
    return {(code.co_filename, code.co_firstlineno) for code in called}


def main() -> int:
    functions = src_functions()
    called = run_commands()
    never = sorted(key for key in functions if key not in called)
    module = None
    for path, line in never:
        if path != module:
            module = path
            print(Path(path).relative_to(SRC))
        name, lines = functions[(path, line)]
        print(f"  {line:>5}  {name}  ({lines} lines)")
    print(
        f"{len(functions)} functions, {len(functions) - len(never)} ran, "
        f"{len(never)} never ran ({sum(functions[key][1] for key in never)} lines)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
