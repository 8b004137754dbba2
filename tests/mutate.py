"""Mutation sweep: which lines of a module can change without a test noticing?

Stdlib only, and not a test module (pytest does not collect it):

    python tests/mutate.py src/hvsim/vgic.py Vgic.guest_eoi -- tests/test_vgic.py tests/test_engine.py

The first argument is a module under src/, the next ones (optional) the
qualified names of the functions to mutate, default all of them; the paths
after ``--`` are the pytest selection each mutant runs under ``-x``.  Each
mutant changes one node of the module's syntax tree:

- swaps a comparison: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
  ``is``/``is not``, ``in``/``not in``
- swaps ``and``/``or``, or ``+``/``-`` (also in ``+=``/``-=``)
- negates the test of an ``if`` statement or expression, or one ``if``
  filter of a comprehension
- deletes a call statement (it becomes the no-op statement ``None``)
- deletes a ``raise`` statement (it too becomes ``None``), so an
  ``if bad: raise`` path counts as swept only if some test expects the error
- deletes a ``continue`` or ``break`` statement (``None`` too), so a loop's
  skip or early exit counts as swept only if some test needs it
- replaces an ``except`` handler's body with a bare ``raise``, so the
  exception it caught goes on as if no clause had matched
- shifts a constant slice start by one, modulo a constant step n > 1:
  ``x[k::n]`` becomes ``x[(k + 1) % n::n]`` (an omitted start is 0), so a
  strided read of interleaved slots counts as swept only if some test
  notices the wrong column

The mutated module is written with ``ast.unparse`` into a copy of the
checkout, so traces, demos and subprocesses all run it.  The unmutated
module, unparsed the same way, must pass first.  A mutant survives when the
selection passes; one that runs five times as long as the unmutated module
(at least 30 s) counts as killed.
Each survivor is printed with its line as it is found, each function's
tally (``# <qualname>: N mutants, K survived, S s``) once its last mutant
ran, and the exit code is 1 if any survive.  Only code inside functions is
mutated: module-level code, such as the comprehension filter that builds
``trace.HV``, is not swept.
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
from itertools import groupby
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out", "*.pyc")

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.And: ast.Or, ast.Or: ast.And, ast.Add: ast.Sub, ast.Sub: ast.Add,
}
_SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Is: "is", ast.IsNot: "is not", ast.In: "in", ast.NotIn: "not in",
    ast.And: "and", ast.Or: "or", ast.Add: "+", ast.Sub: "-",
}


def _functions(tree: ast.Module, names: set[str]):
    """(qualified name, node) of each function to mutate, nested in classes."""
    todo = [("", node) for node in tree.body]
    while todo:
        prefix, node = todo.pop(0)
        if isinstance(node, ast.ClassDef):
            todo.extend((f"{prefix}{node.name}.", child) for child in node.body)
        elif isinstance(node, ast.FunctionDef):
            qualname = prefix + node.name
            if not names or qualname in names:
                yield qualname, node


def _sites(func: ast.AST):
    """(node, slot, description) of every mutation site in func, in a fixed
    order.  slot is an index into a Compare's ops or a comprehension's ifs,
    "op" for a BoolOp, BinOp or AugAssign, "not" for an if test, "call" for
    a call statement, "raise" for an except handler, "delete" for a raise,
    continue or break statement, or "slice" for a constant-start slice with
    a constant step above 1."""
    for node in ast.walk(func):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                yield node, i, f"{ast.unparse(node)[:60]}: {_SYMBOLS[type(op)]} -> {_SYMBOLS[_SWAPS[type(op)]]}"
        elif isinstance(node, (ast.BoolOp, ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPS:
            yield node, "op", f"{_SYMBOLS[type(node.op)]} -> {_SYMBOLS[_SWAPS[type(node.op)]]}"
        elif isinstance(node, (ast.If, ast.IfExp)):
            yield node, "not", f"negate if {ast.unparse(node.test)[:60]}"
        elif isinstance(node, ast.comprehension):
            for i, test in enumerate(node.ifs):
                yield node, i, f"negate filter if {ast.unparse(test)[:60]}"
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            yield node, "call", f"delete call {ast.unparse(node.value)[:60]}"
        elif isinstance(node, ast.ExceptHandler):
            caught = "" if node.type is None else " " + ast.unparse(node.type)[:60]
            yield node, "raise", f"except{caught}: body -> raise"
        elif isinstance(node, (ast.Raise, ast.Continue, ast.Break)):
            yield node, "delete", f"delete {ast.unparse(node)[:60]}"
        elif isinstance(node, ast.Slice) and (phase := _phase(node)):
            k, n = phase
            yield node, "slice", f"slice {ast.unparse(node)[:60]}: start {k} -> {(k + 1) % n}"


def _phase(node: ast.Slice) -> tuple[int, int] | None:
    """(k, n) of a slice k::n whose start k (0 if omitted) and step n > 1 are int constants, else None."""
    lower, step = node.lower, node.step
    if not (isinstance(step, ast.Constant) and type(step.value) is int and step.value > 1):
        return None
    if lower is None:
        return 0, step.value
    if isinstance(lower, ast.Constant) and type(lower.value) is int:
        return lower.value, step.value
    return None


def mutants(source: str, names: set[str]):
    """Yield (qualified name, line, description, mutated source), one
    mutation applied to a fresh parse each time."""
    funcs = list(_functions(ast.parse(source), names))
    missing = names - {qualname for qualname, _ in funcs}
    if missing:
        raise SystemExit(f"no function named {sorted(missing)}")
    sites = [(qualname, k) for qualname, func in funcs for k, _ in enumerate(_sites(func))]
    for qualname, k in sites:
        tree = ast.parse(source)
        func = dict(_functions(tree, {qualname}))[qualname]
        node, slot, what = list(_sites(func))[k]
        line = node.ifs[slot].lineno if isinstance(node, ast.comprehension) else node.lineno
        if isinstance(node, ast.comprehension):
            node.ifs[slot] = ast.UnaryOp(ast.Not(), node.ifs[slot])
        elif slot == "call":
            node.value = ast.Constant(None)  # the statement `None` does nothing
        elif slot == "raise":
            node.body = [ast.Raise()]  # re-raises what the handler caught
        elif slot == "delete":  # the statement `None` takes the raise's, continue's or break's place
            for parent in ast.walk(func):
                for _, body in ast.iter_fields(parent):
                    if isinstance(body, list) and node in body:
                        body[body.index(node)] = ast.Expr(ast.Constant(None))
        elif slot == "slice":
            k, n = _phase(node)
            node.lower = ast.Constant((k + 1) % n)
        elif slot == "not":
            node.test = ast.UnaryOp(ast.Not(), node.test)
        elif slot == "op":
            node.op = _SWAPS[type(node.op)]()
        else:
            node.ops[slot] = _SWAPS[type(node.ops[slot])]()
        yield qualname, line, what, ast.unparse(tree)


def _run_tests(workdir: Path, tests: list[str], timeout: float) -> tuple[bool, float]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(workdir / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return False, time.perf_counter() - start
    return proc.returncode == 0, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        raise SystemExit(__doc__)
    split = argv.index("--")
    parser = argparse.ArgumentParser(description="Mutation sweep over one module.")
    parser.add_argument("module", help="path of the module, e.g. src/hvsim/vgic.py")
    parser.add_argument("functions", nargs="*", help="qualified names to mutate; default all")
    args = parser.parse_args(argv[:split])
    tests = argv[split + 1:]
    module = Path(args.module).resolve()
    relative = module.relative_to(ROOT)
    source = module.read_text()
    cases = list(mutants(source, set(args.functions)))

    with tempfile.TemporaryDirectory(prefix="hvsim-mutate-") as tmp:
        workdir = Path(tmp) / "checkout"
        shutil.copytree(ROOT, workdir, ignore=_SKIP)
        target = workdir / relative
        target.write_text(ast.unparse(ast.parse(source)))
        ok, clean_s = _run_tests(workdir, tests, timeout=None)
        if not ok:
            print(f"the unmutated {relative} fails the selection; nothing to sweep", file=sys.stderr)
            return 2
        timeout = max(5 * clean_s, 30.0)
        print(f"# {relative}: the selection passes unmutated in {clean_s:.1f} s", flush=True)
        survivors = 0
        for qualname, group in groupby(cases, key=lambda case: case[0]):
            start, n, k = time.perf_counter(), 0, 0
            for _, line, what, mutated in group:
                target.write_text(mutated)
                passed, _ = _run_tests(workdir, tests, timeout)
                n += 1
                if passed:
                    k += 1
                    text = source.splitlines()[line - 1].strip()
                    print(f"SURVIVED {relative}:{line} {qualname}: {what}    | {text}", flush=True)
            survivors += k
            print(f"# {qualname}: {n} mutants, {k} survived, {time.perf_counter() - start:.0f} s", flush=True)
        print(f"# {len(cases)} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
