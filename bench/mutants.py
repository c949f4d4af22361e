#!/usr/bin/env python3
"""Print the mutants of one source file that a set of tests does not kill.

    python3 bench/mutants.py --file FILE --tests TEST [TEST ...] [--checkout DIR] [-- PYTEST ARGS]

Copies the checkout (default: this one) to a temporary directory, runs
the tests there once unchanged, then once per mutant of FILE, one
mutant at a time, with ``python -m pytest -x -q`` and any arguments
after ``--`` (``--deselect ...``).  The checkout itself is never written.
A mutant changes one point of FILE, in source order:

- each comparison operator: ``<`` and ``<=``, ``>`` and ``>=``, ``==``
  and ``!=`` swapped;
- each nonzero float constant set to 0;
- each ``"max"`` and ``"min"`` swapped;
- each ``and`` and ``or`` swapped.

A mutant is killed when the tests fail or run longer than ten times
the unchanged run plus 10 s; that run, like every mutant's, reads FILE
as ``ast.unparse`` writes it.  Each survivor is printed as
``FILE:LINE: survived: FUNCTION: SOURCE LINE  [CHANGE]``.  A survivor
that no input can tell from the original (an equivalent mutant) is on
ALLOWED with its reason and is printed as ``allowed`` with it.  The
last line counts the mutants.  Exit status: 0 if every mutant was
killed or allowed, 1 if one survived, 2 if the unchanged tests fail.
Only the standard library is used, and the output is deterministic.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq,
         ast.NotEq: ast.Eq, ast.And: ast.Or, ast.Or: ast.And}
SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
           ast.And: "and", ast.Or: "or"}
# (file name, function, source line, change) of each equivalent mutant, and why no input tells it apart
ALLOWED = {
    ("verify.py", "check_W_decrease", "below = p.derived.W(x2max, x3max, x4max) < cert.gamma - _W_SLACK * cert.gamma",
     "< -> <="):
        "the skip only decides whether a stretch search runs; a bound exactly at gamma*(1 - _W_SLACK) "
        "lies below gamma, so that search finds no stretch and the record is the vacuous one either way",
    ("bounds.py", "_L_star", "if not L - step < L:", "< -> <="):
        "with <= the loop also goes on after a step that leaves L as it is, and every later step "
        "leaves it as it is too, so it ends at the same L after its 200 rounds; only the time differs",
    ("simulate.py", "_settle", "ok = (s >= lo) & (s <= hi)", ">= -> >"):
        "a root or pad slot at exactly lo is the window's start, or the step's left node when lo is 0, "
        "whose value is already among the query's best candidates by the same arithmetic; it can only "
        "tie the best, and a tie never replaces it",
}
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
                                ".perfbench_out", ".perfbench_work", "*.egg-info")


def points(tree: ast.AST):
    """(node, operator index or None, enclosing function) of every mutation point, in source order."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope != "<module>" else node.name
        if isinstance(node, ast.Compare):
            found.extend((node, i, scope) for i, op in enumerate(node.ops) if type(op) in SWAPS)
        elif isinstance(node, ast.BoolOp) or (
            isinstance(node, ast.Constant) and (
                (type(node.value) is float and node.value != 0.0) or node.value in ("max", "min"))
        ):
            found.append((node, None, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return sorted(found, key=lambda f: (f[0].lineno, f[0].col_offset, f[1] or 0))


def mutate(node, i) -> str:
    """Apply one mutation to node in place; return it as 'before -> after'."""
    if isinstance(node, ast.Compare):
        old = type(node.ops[i])
        node.ops[i] = SWAPS[old]()
        return f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"
    if isinstance(node, ast.BoolOp):
        old = type(node.op)
        node.op = SWAPS[old]()
        return f"{SYMBOLS[old]} -> {SYMBOLS[SWAPS[old]]}"
    old, node.value = node.value, {"max": "min", "min": "max"}.get(node.value, 0.0)
    return f"{old!r} -> {node.value!r}"


def run_tests(copy: Path, command, timeout=None):
    """(passed, seconds) of the tests in copy; a run past the timeout fails."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join([str(copy / "src"), str(copy), *filter(None, [env.get("PYTHONPATH")])])
    start = time.perf_counter()
    try:
        code = subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        code = None
    return code == 0, time.perf_counter() - start


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    extra = argv[argv.index("--") + 1 :] if "--" in argv else []
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--file", required=True, help="the source file to mutate, relative to the checkout")
    ap.add_argument("--tests", required=True, nargs="+", help="test files or node ids, relative to the checkout")
    ap.add_argument("--checkout", default=str(ROOT), help="the tree to copy (default: this checkout)")
    args = ap.parse_args(argv[: argv.index("--")] if "--" in argv else argv)
    source = (Path(args.checkout) / args.file).read_text()
    lines = source.splitlines()
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *args.tests, *extra]
    n = len(points(ast.parse(source)))
    killed = allowed = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(args.checkout, copy, ignore=IGNORE)
        target = copy / args.file
        target.write_text(ast.unparse(ast.parse(source)) + "\n")
        ok, seconds = run_tests(copy, command)
        if not ok:
            print(f"the unchanged tests fail in a copy of {args.checkout}; no mutant was run")
            return 2
        print(f"{n} mutants of {args.file} against {' '.join(args.tests)}: unchanged run {seconds:.1f} s")
        for k in range(n):
            tree = ast.parse(source)
            node, i, scope = points(tree)[k]
            line = lines[node.lineno - 1].strip()
            change = mutate(node, i)
            target.write_text(ast.unparse(tree) + "\n")
            ok, _ = run_tests(copy, command, timeout=10 * seconds + 10)
            if not ok:
                killed += 1
                continue
            reason = ALLOWED.get((Path(args.file).name, scope, line, change))
            allowed += reason is not None
            verdict = f"allowed ({reason})" if reason else "survived"
            print(f"{args.file}:{node.lineno}: {verdict}: {scope}: {line}  [{change}]", flush=True)
    survived = n - killed - allowed
    print(f"{n} mutants: {killed} killed, {survived} survived, {allowed} allowed as equivalent")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
