"""Mutation census of the runtime checks in cover.py, atspp.py and latency.py.

    python tools/check_census.py

A check is a `raise InvariantError(...)`, a `state.check(name, ok, ...)`
call or an `at_most(name, value, bound, ...)` call.  In a temporary copy
of src/ and tests/, whose test files must first pass as they are, the
census disables one check at a time (the raise becomes `pass`, ok
becomes True, the bound becomes max(value, bound), which keeps the
recorded witness of a passing run) and runs the module's fault-case test,
then, if that passes, every test file that imports the module.  A
failing test means the check fires, and the census names that test.  A
check under which every test still passes must be listed in IMPLIED,
with the earlier check or step that implies it; only recorded checks,
whose names and witnesses are pinned output, may be listed there.
DELETED names the checks that were removed and the check that still
covers each bound.

Exit status 0 when every check fires or is listed as implied and both
tables match the source; 1 otherwise.
"""

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("cover", "atspp", "latency")
# the parametrized test that holds each module's fault cases
FAULT_TEST = {m: f"tests/test_{m}.py::test_check_fires" for m in MODULES}
# seconds a run may take; each fault test passes in a few seconds, and the
# test files that import a module in under a minute
FAULT_TIMEOUT, FILES_TIMEOUT = 30, 300

# (module, check) -> what implies it, an earlier check or the step that
# precedes it; the check stays because its name and witness are pinned
# output
IMPLIED = {
    ("atspp", "nodes-accounted"):
        "the contraction step: W loses only nodes of a weak component, and "
        "every arc of the component joins H",
    ("latency", "scale-count"):
        "normalization-spread: t's latency is at most n^2, so "
        "g = floor(log2 of it) + 1 <= 2 ceil(log2 n) + 1",
    ("latency", "quarter-shrink"):
        "pivot-coverage: each of the two passes removes at least half "
        "of what is left",
}

# (module, message) -> the check that still covers the deleted one's bound,
# or why none is needed
DELETED = {
    ("cover", "matching arcs failed to cover W"):
        "needs no check: every unused node of W starts a cycle walk, so "
        "the walks end with every node of W used",
    ("atspp", "active set failed to halve within its budget"):
        "covered by interior of W did not halve",
    ("atspp", "emitted more paths than the budget allows"):
        "covered by tour did not split cleanly at the virtual returns, with "
        "interior of W did not halve",
    ("atspp", "representative {rep} is on no path"):
        "covered by single-shared-splice-node and component-avoids-endpoints, "
        "which put the representative in W - {s, t}, all of which is on a "
        "path by stitch-spans-active-set (solve_atspp) or "
        "chains-partition-interior (solve_k_person)",
}


def _text(node):
    """A check's key: a string constant, or an f-string with its fields
    written as {expr}."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(v.value if isinstance(v, ast.Constant) else "{" + ast.unparse(v.value) + "}"
                       for v in node.values)
    return None


def find_checks(source):
    """[(key, kind, (start, end), replacement)] for every check in source,
    where start and end are (line, col) spans of the text to replace."""
    checks = []

    def span(node):
        return (node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset)

    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and getattr(node.exc.func, "id", None) == "InvariantError"):
            checks.append((_text(node.exc.args[0]), "raise", span(node), "pass"))
        elif isinstance(node, ast.Call) and node.args and _text(node.args[0]) is not None:
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr == "check":
                checks.append((node.args[0].value, "check", span(node.args[1]), "True"))
            elif isinstance(func, ast.Name) and func.id == "at_most":
                value, bound = (ast.get_source_segment(source, a) for a in node.args[1:3])
                checks.append((node.args[0].value, "at_most", span(node.args[2]),
                               f"max({value}, {bound})"))
    return sorted(checks, key=lambda c: c[2])


def mutate(source, start, end, replacement):
    lines = source.splitlines(keepends=True)
    (l0, c0), (l1, c1) = start, end
    head = "".join(lines[:l0 - 1]) + lines[l0 - 1][:c0]
    tail = lines[l1 - 1][c1:] + "".join(lines[l1:])
    return head + replacement + tail


def importing_tests(module):
    """Test files that import asympath.<module>, in name order."""
    found = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.module == f"asympath.{module}"
                    or node.module == "asympath" and any(a.name == module for a in node.names)):
                found.append(f"tests/{path.name}")
                break
    return found


def run_pytest(work, targets, timeout):
    """None if every test passes, else the node id of the first failure.
    A run past timeout seconds fails: without its check, a loop may never
    end."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
             *targets], cwd=work, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return f"{' '.join(targets)} (still running after {timeout} s)"
    if proc.returncode == 0:
        return None
    failed = re.findall(r"^FAILED (.+?)(?: - .*)?$", proc.stdout, re.M)
    return failed[0] if failed else f"pytest exit {proc.returncode}: {proc.stdout[-300:]}"


def census(module, work):
    """Print one line per check of module; return the number of problems."""
    path = work / "src" / "asympath" / f"{module}.py"
    source = path.read_text()
    problems = 0
    seen = set()
    for key, kind, (start, end), replacement in find_checks(source):
        seen.add(key)
        path.write_text(mutate(source, start, end, replacement))
        try:
            failed = (run_pytest(work, [FAULT_TEST[module]], FAULT_TIMEOUT)
                      or run_pytest(work, importing_tests(module), FILES_TIMEOUT))
        finally:
            path.write_text(source)
        where = f"{module}.py:{start[0]}"
        if failed:
            print(f"fired    {where:<16} {kind:<8} {key!r} by {failed}")
        elif (module, key) in IMPLIED and kind != "raise":
            print(f"implied  {where:<16} {kind:<8} {key!r} by {IMPLIED[(module, key)]}")
        else:
            print(f"SURVIVES {where:<16} {kind:<8} {key!r}: no test fails without it")
            problems += 1
        if failed and (module, key) in IMPLIED:
            print(f"STALE    {module}: {key!r} is listed as implied but fires")
            problems += 1
    for (mod, key), cover in DELETED.items():
        if mod != module:
            continue
        if key in seen:
            print(f"STALE    {module}: {key!r} is listed as deleted but is still there")
            problems += 1
        else:
            print(f"deleted  {module + '.py':<16} {'raise':<8} {key!r}: {cover}")
    for mod, key in IMPLIED:
        if mod == module and key not in seen:
            print(f"STALE    {module}: {key!r} is listed as implied but is not there")
            problems += 1
    return problems


def main():
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="check-census-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.pyc")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        # a failure counts for a check only if the tests pass without one
        failed = run_pytest(work, sorted({t for m in MODULES for t in importing_tests(m)}),
                            FILES_TIMEOUT)
        if failed:
            print(f"{failed} fails on the unmutated source")
            return 1
        problems = sum(census(m, work) for m in MODULES)
    print(f"{problems} problem(s) in {time.perf_counter() - started:.0f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
