"""Line reach of the package: the statements of src/ that neither tier-1
nor the byte replay runs.

    python tools/reach.py

Runs tier-1 (pytest on tests/) and the byte replay's seed-1 and seed-2
op lists (tools/replay.py) in one process under a sys.settrace line
trace, with the package imported from this checkout's src/ after the
trace starts, so class bodies and import-time code are traced too.  A
statement is an AST statement inside a function or class body of a
src/ module (an except clause counts as one), docstrings excluded; it
counts where one of its own lines (its span less the spans of the
statements nested in it) holds bytecode, and it is reached where the
trace saw one of those lines run.

Prints each unreached statement as module:line function: text, then the
counts.  Exits 1 on a failing tier-1 run, an untyped replay failure, an
unreached statement that tools/reach_allow.json does not name, or an
entry of that file that names no unreached statement (stale).  An entry
is {"module", "function", "statement", "reason"}: the module's name
under src/xfekete/, the dotted name of the enclosing function or class,
the statement's first source line stripped, and why nothing need reach
it; it covers every unreached statement with that key.
"""

import ast
import json
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "xfekete")
ALLOW = os.path.join(ROOT, "tools", "reach_allow.json")


def _code_lines(code):
    """The lines that hold bytecode in code and its nested code."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _span(node):
    first = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", [])])
    return set(range(first, node.end_lineno + 1))


def _children(node):
    """The statements (and except clauses) of node's bodies."""
    for field in ("body", "orelse", "finalbody", "handlers"):
        yield from getattr(node, field, [])


def _is_docstring(node):
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path):
    """[(function, line, text, own lines)] of the statements of the
    module at path inside a function or class body, docstrings
    excluded; own lines are those that hold bytecode."""
    with open(path) as fh:
        source = fh.read()
    tree = ast.parse(source)
    executable = _code_lines(compile(source, path, "exec"))
    lines = source.splitlines()
    out = []

    def visit(body, scope):
        for k, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                inner = f"{scope}.{node.name}" if scope else node.name
                visit(node.body[1:] if _is_docstring(node.body[0])
                      else node.body, inner)
            else:
                visit(list(_children(node)), scope)
            if not scope:
                continue
            own = _span(node).difference(*map(_span, _children(node)))
            own &= executable
            if own:
                out.append((scope, node.lineno,
                            lines[node.lineno - 1].strip(), own))

    visit(tree.body, "")
    return out


def _trace(reached):
    """A sys.settrace function that adds (file, line) to reached for
    every line run in a file of the package."""
    mine = {}

    def local(frame, event, arg):
        if event == "line":
            reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in mine:
            mine[name] = os.path.dirname(os.path.abspath(name)) == PACKAGE
        return local if mine[name] else None

    return calls


def run():
    """(set of (file, line) run, tier-1 exit code, replay failures)."""
    reached = set()
    tracer = _trace(reached)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tools")]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        import pytest
        tests = pytest.main(["-q", "-p", "no:cacheprovider",
                             os.path.join(ROOT, "tests")])
        import replay
        _, failures = replay.replay(ROOT)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return reached, int(tests), failures


def main():
    reached, tests, failures = run()
    with open(ALLOW) as fh:
        allow = json.load(fh)
    keys = {(e["module"], e["function"], e["statement"]): e.get("reason")
            for e in allow}
    used, bad, total = set(), [], 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        module = name[:-3]
        for scope, line, text, own in statements(path):
            total += 1
            if any((path, k) in reached for k in own):
                continue
            key = (module, scope, text)
            print(f"{module}:{line} {scope}: {text}")
            if keys.get(key):
                used.add(key)
            else:
                bad.append(key)
    stale = [k for k in keys if k not in used]
    for module, scope, text in stale:
        print(f"STALE {module} {scope}: {text}")
    for key, argv, what in failures:
        print(f"UNTYPED {key} {argv}: {what}")
    unreached = len(bad) + len(used)
    print(f"{unreached} of {total} statements unreached, {len(bad)} not "
          f"allowed; {len(stale)} stale allowlist entries; tier-1 exit "
          f"code {tests}")
    return 1 if bad or stale or failures or tests else 0


if __name__ == "__main__":
    sys.exit(main())
