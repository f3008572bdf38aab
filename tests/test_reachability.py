"""Every public name of the package is reached from a CLI command.

The walk parses the package's modules and follows module-level names
from every function of cli: a function or a module-level value is
reached when reached code names it (through the package's imports); a
class only when reached code constructs or raises it, or a reached
class derives from it.  A reached class brings its class body, its
dunder methods and each method or property whose name reached code
reads as an attribute.  Two public names are kept without a command,
each for the reason in ALLOWLIST; no command may reach either of them,
so that the allowlist holds no stale entry, and every other public name
is reached from a command, so that neither brings a public name along.
"""

import ast
from pathlib import Path

import xfekete as xf

ALLOWLIST = {
    "exceptional_eval": "perfbench's oracle test calls it for the value of "
                        "ladder_eval_pair, and perfbench changes only with "
                        "the benchmark",
    "inv_weight_brackets": "ROADMAP item 16 decides whether the stability "
                           "verdict of verify uses it",
}


def _package_sources():
    return {path.stem: path.read_text()
            for path in sorted(Path(xf.__file__).parent.glob("*.py"))}


class _Module:
    """The module-level definitions and package imports of one module."""

    def __init__(self, source):
        self.defs, self.imports = {}, {}
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for t in targets:
                    if isinstance(t, ast.Name):
                        self.defs[t.id] = node
            elif isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    self.imports[a.asname or a.name] = (
                        node.module or "__init__", a.name)


def _uses(node):
    """(names, constructed, attributes) of the code under node: every
    name read, the names called or raised, and every attribute read."""
    names, constructed, attrs = set(), set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            attrs.add(sub.attr)
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name):
            constructed.add(sub.func.id)
        elif isinstance(sub, ast.Raise) and isinstance(sub.exc, ast.Name):
            constructed.add(sub.exc.id)
    return names, constructed, attrs


def reached(sources, roots):
    """The (module, name) definitions reached from roots, a list of
    (module, name), over the modules of sources ({module: source})."""
    mods = {name: _Module(src) for name, src in sources.items()}

    def resolve(mod, name):
        seen = set()
        while (mod, name) not in seen and mod in mods:
            seen.add((mod, name))
            if name in mods[mod].defs:
                return mod, name
            if name not in mods[mod].imports:
                return None
            mod, name = mods[mod].imports[name]
        return None

    done, todo, attrs, walked = set(), list(roots), set(), set()

    def walk(mod, node):
        names, constructed, read = _uses(node)
        attrs.update(read)
        for name in names:
            target = resolve(mod, name)
            if target is None:
                continue
            is_class = isinstance(mods[target[0]].defs[target[1]],
                                  ast.ClassDef)
            if not is_class or name in constructed:
                todo.append(target)

    while todo:
        while todo:
            mod, name = todo.pop()
            if (mod, name) in done:
                continue
            done.add((mod, name))
            node = mods[mod].defs[name]
            if not isinstance(node, ast.ClassDef):
                walk(mod, node)
                continue
            for base in node.bases:
                target = resolve(mod, getattr(base, "id", None))
                if target is not None:
                    todo.append(target)
            for item in node.decorator_list + node.body:
                if not isinstance(item, ast.FunctionDef):
                    walk(mod, item)
        # methods: dunders of a reached class, others when read by name
        for mod, name in list(done):
            node = mods[mod].defs[name]
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and (mod, name, item.name) not in walked
                        and (item.name.startswith("__")
                             or item.name in attrs)):
                    walked.add((mod, name, item.name))
                    walk(mod, item)
    return done


def _public_targets(sources):
    init = _Module(sources["__init__"])
    return {name: init.imports[name] for name in xf.__all__}


def test_every_public_name_is_reached_from_a_command():
    sources = _package_sources()
    cli_roots = [("cli", name) for name, node in _Module(sources["cli"])
                 .defs.items() if isinstance(node, ast.FunctionDef)]
    public = _public_targets(sources)
    assert set(public) == set(xf.__all__)
    closure = reached(sources, cli_roots)
    # the allowlisted names and nothing else: no stale entry, and no
    # public name that only an allowlisted root brings along
    unreached = sorted(n for n, t in public.items() if t not in closure)
    assert unreached == sorted(ALLOWLIST)


def test_walk_follows_names_calls_and_attributes():
    sources = {
        "__init__": "",
        "a": ("from .b import g, K, E\n"
              "def main():\n"
              "    return g(1)\n"
              "def unused():\n"
              "    return 2\n"),
        "b": ("TABLE = {'x': lambda: h()}\n"
              "class E(Exception):\n"
              "    pass\n"
              "class F(E):\n"
              "    pass\n"
              "class K:\n"
              "    def __init__(self):\n"
              "        self.y = 1\n"
              "    def used(self):\n"
              "        return m()\n"
              "    def idle(self):\n"
              "        return n()\n"
              "def g(x):\n"
              "    try:\n"
              "        return K().used() + TABLE['x']()\n"
              "    except E:\n"
              "        raise F('no')\n"
              "def h():\n"
              "    return isinstance(0, E)\n"
              "def m():\n"
              "    return 0\n"
              "def n():\n"
              "    return 0\n"),
    }
    got = reached(sources, [("a", "main")])
    # E is reached as the base of the raised F, not by its except clause
    assert got == {("a", "main"), ("b", "g"), ("b", "TABLE"), ("b", "h"),
                   ("b", "K"), ("b", "m"), ("b", "F"), ("b", "E")}
    no_raise = dict(sources, b=sources["b"].replace("raise F('no')",
                                                    "return None"))
    assert ("b", "E") not in reached(no_raise, [("a", "main")])
