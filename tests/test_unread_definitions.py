"""Every function and method defined in src/clarklab is read by name
somewhere in src, tests, demos or perfbench.

Like test_unused_imports.py this parses each file with ``ast``.  A read
of a method is an attribute access, and a read of a function is a loaded
name or an attribute access; a function's reads of its own name inside
its own body do not count.  The dotted attributes in
perfbench/spans.py ``TARGETS`` count as reads of each of their parts.
Dunder methods are called by the language, and a method that overrides
one of a base class is called through the base's interface, so neither
needs a read.
"""
import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "clarklab"
READERS = sorted(p for d in (PACKAGE, ROOT / "tests", ROOT / "demos", ROOT / "perfbench")
                 for p in d.glob("*.py"))


def definitions(source: str) -> list[tuple[str | None, str]]:
    """(enclosing class or None, name) of each function defined in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                found.append((node.name if isinstance(node, ast.ClassDef) else None, child.name))
    return found


def reads(source: str) -> tuple[set[str], set[str]]:
    """Names that source loads, and attributes that it reads, other than a
    function's own name in its body."""
    names, attrs = set(), set()

    def visit(node, own):
        if isinstance(node, ast.FunctionDef):
            own = own | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
            names.add(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                and node.attr not in own:
            attrs.add(node.attr)
        for child in ast.iter_child_nodes(node):
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


def test_reference_flags_unread_definitions():
    source = ("def f():\n    return f()\n"
              "class C:\n    def m(self):\n        return self.n\n    def n(self):\n        pass\n")
    assert definitions(source) == [(None, "f"), ("C", "m"), ("C", "n")]
    assert reads(source) == ({"self"}, {"n"})
    assert target_reads('TARGETS = {"x": ("circle", "AtomicMeasure.__init__", None)}') == {
        "x", "circle", "AtomicMeasure", "__init__"}


def test_every_definition_is_read():
    # a method is read as an attribute; a function by name or as a module attribute
    names, attrs = map(set().union, *(reads(p.read_text()) for p in READERS))
    attrs |= target_reads((ROOT / "perfbench" / "spans.py").read_text())
    unread = [f"{path.stem}.{cls + '.' if cls else ''}{name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for cls, name in definitions(path.read_text())
              if name not in (attrs if cls else names | attrs)
              and not (name.startswith("__") and name.endswith("__"))
              and not (cls and overrides(path.stem, cls, name))]
    assert unread == []
