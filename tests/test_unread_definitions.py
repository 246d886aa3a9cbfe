"""Every function, method and class defined in src/clarklab is read by
name somewhere in the programs: src, demos or the perfbench modules.

A read from a test does not count, nor does one from perfbench's own
``test_*.py`` files: a definition that only tests reach belongs with
the tests (tests/oracles.py).  Like test_unused_imports.py this parses
each file with ``ast``.  A read of a method is an attribute access, and
a read of a function or class is a loaded name or an attribute access;
a definition's reads of its own name inside its own body do not count,
nor do the reads made inside the body of a definition that is itself
unread: the count is repeated without them until no further definition
turns up unread, so a chain of definitions that only tests reach is
flagged whole, not one link at a time.
The dotted attributes in perfbench/spans.py ``TARGETS`` count as reads
of each of their parts.  Dunder methods are called by the language, and
a method that overrides one of a base class is called through the
base's interface, so neither needs a read.
"""
import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEFS = (ast.FunctionDef, ast.ClassDef)


def readers(root: Path) -> list[Path]:
    """The program files under root whose reads count: src/clarklab,
    demos, and perfbench apart from its test_*.py files."""
    return sorted([*(root / "src" / "clarklab").glob("*.py"), *(root / "demos").glob("*.py"),
                   *(p for p in (root / "perfbench").glob("*.py")
                     if not p.name.startswith("test_"))])


def definitions(source: str) -> list[tuple[str | None, str]]:
    """(enclosing class or None, name) of each function and class defined
    in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFS):
                found.append((node.name if isinstance(node, ast.ClassDef) else None, child.name))
    return found


def reads(source: str, skip=frozenset()) -> tuple[set[str], set[str]]:
    """Names that source loads, and attributes that it reads, other than a
    definition's own name in its body, and outside the definitions in
    ``skip``, given as definitions() lists them."""
    names, attrs = set(), set()

    def visit(node, own):
        if isinstance(node, DEFS):
            own = own | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
            names.add(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and node.attr not in own:
            attrs.add(node.attr)
        for child in ast.iter_child_nodes(node):
            if not (isinstance(child, DEFS) and (
                    node.name if isinstance(node, ast.ClassDef) else None, child.name) in skip):
                visit(child, own)

    visit(ast.parse(source), frozenset())
    return names, attrs


def target_reads(source: str) -> set[str]:
    """Each part of the dotted strings in a module's TARGETS dict."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return {part for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                    for part in c.value.split(".")}
    return set()


def overrides(module: str, cls: str, name: str) -> bool:
    klass = getattr(importlib.import_module(f"clarklab.{module}"), cls)
    return any(name in vars(base) for base in klass.__mro__[1:])


def unread(root: Path) -> list[str]:
    """module.[class.]name of each definition in root/src/clarklab that no
    reader under root reads outside the definitions found unread."""
    src = root / "src" / "clarklab"
    spans = root / "perfbench" / "spans.py"
    found = []
    while True:
        # a method is read as an attribute; a function or class by name or
        # as a module attribute
        names, attrs = map(set().union, *(
            reads(p.read_text(), {(cls, name) for module, cls, name in found
                                  if p.parent == src and module == p.stem})
            for p in readers(root)))
        if spans.exists():
            attrs |= target_reads(spans.read_text())
        now = [(path.stem, cls, name) for path in sorted(src.glob("*.py"))
               for cls, name in definitions(path.read_text())
               if name not in (attrs if cls else names | attrs)
               and not (name.startswith("__") and name.endswith("__"))
               and not (cls and overrides(path.stem, cls, name))]
        if now == found:
            return [f"{module}.{cls + '.' if cls else ''}{name}" for module, cls, name in found]
        found = now


def test_reference_flags_unread_definitions(tmp_path):
    source = ("def f():\n    return f()\n"
              "class C:\n    def m(self):\n        return self.n\n    def n(self):\n        pass\n"
              "class D:\n    x = D\n")
    assert definitions(source) == [(None, "f"), (None, "C"), (None, "D"),
                                   ("C", "m"), ("C", "n")]
    assert reads(source) == ({"self"}, {"n"})
    assert reads(source, {("C", "m")}) == (set(), set())
    assert target_reads('TARGETS = {"x": ("circle", "AtomicMeasure.__init__", None)}') == {
        "x", "circle", "AtomicMeasure", "__init__"}
    # reads from tests, perfbench's included, do not count, nor do reads
    # from a definition that only tests reach: the oracle's read of its
    # helper
    files = {"src/clarklab/mod.py": ("def used():\n    pass\ndef tested():\n    pass\n"
                                     "class Unread:\n    pass\nclass Benched:\n    pass\n"
                                     "class Used:\n    pass\n"
                                     "def helper():\n    pass\ndef oracle():\n    helper()\n"),
             "demos/demo.py": "import mod\nmod.used()\nUsed()\n",
             "perfbench/run.py": "Benched()\n",
             "perfbench/test_run.py": "Unread()\ntested()\n",
             "tests/test_mod.py": ("from mod import tested, Unread, oracle\n"
                                   "tested()\nUnread()\noracle()\n")}
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert [p.relative_to(tmp_path).as_posix() for p in readers(tmp_path)] == [
        "demos/demo.py", "perfbench/run.py", "src/clarklab/mod.py"]
    assert unread(tmp_path) == ["mod.tested", "mod.Unread", "mod.helper", "mod.oracle"]


def test_every_definition_is_read():
    assert unread(ROOT) == []
