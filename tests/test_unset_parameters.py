"""Every defaulted parameter of a function in src/clarklab is passed by
some call in the programs: src, demos or the perfbench modules.

A parameter that no program sets is a constant with an option's cost,
so it should be the constant.  Calls from tests do not count, nor do
those from perfbench's own ``test_*.py`` files.  Like
test_unread_definitions.py, whose ``readers`` this shares, it parses
each file with ``ast`` and matches by name: a call ``f(...)`` or
``x.f(...)`` passes a parameter of every function named f when it names
it as a keyword, or holds a positional argument at its place (after
``self`` or ``cls`` for a method).  A call of a class passes the
parameters of its ``__init__``.  A call with ``*args`` or ``**kwargs``
passes every parameter.
"""
import ast
from pathlib import Path

from test_unread_definitions import readers

ROOT = Path(__file__).resolve().parent.parent


def defaulted(source: str) -> list[tuple[str, str, str, int | None]]:
    """(where, callee name, parameter, positional index or None) of each
    parameter with a default in source; a class's __init__ is called by
    the class's name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for fn in ast.iter_child_nodes(node):
            if not isinstance(fn, ast.FunctionDef):
                continue
            in_class = isinstance(node, ast.ClassDef)
            name = node.name if in_class and fn.name == "__init__" else fn.name
            where = f"{node.name}.{fn.name}" if in_class else fn.name
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in fn.decorator_list)
            skip = int(in_class and not static)
            args = fn.args.posonlyargs + fn.args.args
            for i, a in enumerate(args[len(args) - len(fn.args.defaults):],
                                  start=len(args) - len(fn.args.defaults)):
                found.append((where, name, a.arg, i - skip))
            for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if d is not None:
                    found.append((where, name, a.arg, None))
    return found


def passed(source: str) -> tuple[set[tuple[str, str]], dict[str, int], set[str]]:
    """What the calls in source pass: (callee, keyword) pairs, the most
    positional arguments per callee, and the callees given *args or
    **kwargs."""
    keywords, positional, star = set(), {}, set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        if name is None:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords):
            star.add(name)
        keywords.update((name, k.arg) for k in node.keywords)
        positional[name] = max(positional.get(name, 0), len(node.args))
    return keywords, positional, star


def unset(definitions, keywords, positional, star) -> list[str]:
    return [f"{where}({param})" for where, name, param, i in definitions
            if name not in star and (name, param) not in keywords
            and not (i is not None and positional.get(name, 0) > i)]


def never(root: Path) -> list[str]:
    """module.function(parameter) of each defaulted parameter in
    root/src/clarklab that no call in a reader under root passes (see
    test_unread_definitions.readers)."""
    keywords, positional, star = set(), {}, set()
    for path in readers(root):
        k, p, s = passed(path.read_text())
        keywords |= k
        star |= s
        for name, n in p.items():
            positional[name] = max(positional.get(name, 0), n)
    return [f"{path.stem}.{entry}" for path in sorted((root / "src" / "clarklab").glob("*.py"))
            for entry in unset(defaulted(path.read_text()), keywords, positional, star)]


def test_reference_flags_unset_parameters(tmp_path):
    source = ("def f(a, b=1, c=2, *, d=3):\n    pass\n"
              "class C:\n    def __init__(self, x=0):\n        pass\n"
              "    def m(self, y=0, z=1):\n        pass\n"
              "def g(e=1):\n    pass\n"
              "f(0, 5)\nf(0, d=4)\nC(1)\nC().m(2)\nargs = ()\ng(*args)\n")
    assert defaulted(source) == [("f", "f", "b", 1), ("f", "f", "c", 2), ("f", "f", "d", None),
                                 ("g", "g", "e", 0), ("C.__init__", "C", "x", 0),
                                 ("C.m", "m", "y", 0), ("C.m", "m", "z", 1)]
    assert unset(defaulted(source), *passed(source)) == ["f(c)", "C.m(z)"]
    # calls from tests, perfbench's included, do not count
    files = {"src/clarklab/mod.py": "def f(a=0, b=1, c=2):\n    pass\n",
             "demos/demo.py": "f(a=1)\n",
             "perfbench/test_run.py": "f(0, 1)\n",
             "tests/test_mod.py": "f(c=3)\n"}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert never(tmp_path) == ["mod.f(b)", "mod.f(c)"]


def test_every_defaulted_parameter_is_passed():
    assert never(ROOT) == []
