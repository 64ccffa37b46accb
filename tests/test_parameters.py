"""Every defaulted parameter of a function in ``src/sparselag`` is passed by some call in ``src/``, ``bench/``
or ``demos/``.  A default that no caller overrides is a constant with a parameter's name, and a parameter
that only the tests set is a hook into the library that users do not run."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CALLER_DIRS = ("src", "bench", "demos")


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _decorator_names(node) -> set[str]:
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        names.add(target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None))
    return names


def _parameters(function, bound: bool):
    """(name, positional index or None, has a default) per parameter, without self or cls when bound."""
    arguments = function.args
    positional = arguments.posonlyargs + arguments.args
    first_default = len(positional) - len(arguments.defaults)
    out = [(arg.arg, i, i >= first_default) for i, arg in enumerate(positional)]
    out += [(arg.arg, None, default is not None) for arg, default in zip(arguments.kwonlyargs, arguments.kw_defaults)]
    return [(name, None if i is None else i - bound, default) for name, i, default in out[bound:]]


def defaulted_parameters(tree) -> dict[str, set[tuple[str, int | None]]]:
    """Callee name -> its defaulted parameters (name, positional index or None).  Dunder methods are exempt,
    but a class is a callee of its own name: its ``__init__``, or, for a dataclass, its fields."""
    out = {}

    def visit(body, in_class: bool):
        for node in body:
            if isinstance(node, ast.ClassDef):
                init = next((item for item in node.body
                             if isinstance(item, ast.FunctionDef) and item.name == "__init__"), None)
                fields = [item for item in node.body if isinstance(item, ast.AnnAssign)]
                if init is not None:
                    params = _parameters(init, bound=True)
                elif "dataclass" in _decorator_names(node):
                    params = [(item.target.id, i, item.value is not None) for i, item in enumerate(fields)]
                else:
                    params = []
                out.setdefault(node.name, set()).update((name, i) for name, i, default in params if default)
                visit(node.body, True)
            elif isinstance(node, ast.FunctionDef):
                if not _is_dunder(node.name):
                    bound = in_class and "staticmethod" not in _decorator_names(node)
                    out.setdefault(node.name, set()).update(
                        (name, i) for name, i, default in _parameters(node, bound) if default)
                visit(node.body, False)

    visit(tree.body, False)
    return out


def _callee(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def calls(tree):
    """(callee name, positional count, keywords) per call; ``functools.partial(f, ...)`` is a call of f, and
    ``cls(...)`` one of the class it is written in.  A ``*`` argument counts as every position and a ``**``
    argument as every keyword (keywords None)."""
    owner = {}
    for cls in ast.walk(tree):      # outer classes first, so a node's innermost class is written last
        if isinstance(cls, ast.ClassDef):
            owner.update((id(node), cls.name) for node in ast.walk(cls))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee(node.func), node.args
        if name == "cls":
            name = owner.get(id(node), name)
        if name == "partial" and args:
            name, args = _callee(args[0]), args[1:]
        positional = float("inf") if any(isinstance(arg, ast.Starred) for arg in args) else len(args)
        keywords = None if any(kw.arg is None for kw in node.keywords) else {kw.arg for kw in node.keywords}
        yield name, positional, keywords


def never_passed(library: list[str], callers: list[str]) -> list[str]:
    """'callee.parameter' for each defaulted parameter of the library sources that no caller source passes."""
    params = {}
    for source in library:
        for callee, found in defaulted_parameters(ast.parse(source)).items():
            params.setdefault(callee, set()).update(found)
    passed = set()
    for source in callers:
        for callee, positional, keywords in calls(ast.parse(source)):
            for name, i in params.get(callee, ()):
                if keywords is None or name in keywords or (i is not None and i < positional):
                    passed.add((callee, name))
    return sorted(f"{callee}.{name}" for callee, found in params.items() for name, _ in found
                  if (callee, name) not in passed)


def _sources(*dirs: str) -> list[str]:
    return [path.read_text(encoding="utf-8") for d in dirs for path in sorted((ROOT / d).rglob("*.py"))]


def test_every_defaulted_parameter_is_passed_somewhere():
    assert never_passed(_sources("src/sparselag"), _sources(*CALLER_DIRS)) == []


def test_guard_sees_positions_keywords_classes_and_partials():
    library = '''
from dataclasses import dataclass
from functools import partial

def f(a, b=1, *, c=2): pass
def g(a, b=1): pass
def h(a, b=1): pass

class K:
    def __init__(self, x, y=0): pass
    def method(self, u, v=0): pass
    def __setattr__(self, name, value=None): pass

@dataclass
class D:
    p: int
    r: int = 0
    s: int = 1

    @classmethod
    def make(cls, p):
        return cls(p, s=2)

@dataclass
class E:
    t: int = 0

    @classmethod
    def make(cls, **overrides):
        return cls(**overrides)

def unused(z=3): pass
'''
    caller = '''
f(1, c=3)
g(1, 2)
partial(h, 1, 2)
K(1, 2).method(3)
D.make(1)
E.make()
args = ()
unused(*args)
'''
    assert never_passed([library], [library, caller]) == ["D.r", "f.b", "method.v"]
