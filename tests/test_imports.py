"""Every name a library module imports is used in that module, every
parameter of a library function is read by its body, every private
module-level function is called from somewhere else in the library, no
library module checks an invariant with ``assert``, which ``python -O``
strips, or with a hand-raised ``AssertionError``, which names no invariant,
only ``coeffring`` tells a field element from an Artin element, only
its two factories build a ring descriptor, and only the memo accessor of
the generator complex builds its differentials.

The import scan skips the package's ``__init__.py``, since its imports are
the public re-exports, and ``from __future__``.
"""

import ast
import pathlib

import pytest

import wildram

SRC = pathlib.Path(wildram.__file__).resolve().parent
ALL_MODULES = sorted(p.name for p in SRC.glob("*.py"))
MODULES = [name for name in ALL_MODULES if name != "__init__.py"]


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from math import gcd, pi\n"
              "def f(x):\n"
              "    from json import dumps\n"
              "    return gcd(x, 2) + os.getpid()\n")
    assert unused_imports(source) == [(2, "system"), (3, "pi"), (5, "dumps")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def unread_parameters(source):
    """(line, function, parameter) for each parameter, ``self`` and ``cls``
    apart, that the function body never reads; a read inside a nested
    function counts."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(node.lineno, node.name, name) for name in params
                if name not in ("self", "cls") and name not in read]
    return sorted(out)


def test_parameter_scanner_flags_only_unread_parameters():
    source = ("def f(a, b, *rest, c=1, **opts):\n"
              "    b = 2\n"
              "    def g():\n"
              "        return a + b\n"
              "    return g\n"
              "class K:\n"
              "    def m(self, x, y):\n"
              "        return x\n"
              "    @classmethod\n"
              "    def n(cls, z=None):\n"
              "        return cls\n")
    assert unread_parameters(source) == [
        (1, "f", "c"), (1, "f", "opts"), (1, "f", "rest"),
        (7, "m", "y"), (10, "n", "z")]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_unread_parameters(module):
    assert unread_parameters((SRC / module).read_text()) == []


def dead_private_functions(sources):
    """(module, line, name) for each module-level function named with one
    leading underscore that no code of the given modules refers to, by name
    or as an attribute, outside the function's own body."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    out = []
    for mod, tree in trees.items():
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                    and not fn.name.startswith("__")):
                continue
            own = {id(n) for n in ast.walk(fn)}
            if not any(id(n) not in own and fn.name in (getattr(n, "id", None),
                                                        getattr(n, "attr", None))
                       for t in trees.values() for n in ast.walk(t)):
                out.append((mod, fn.lineno, fn.name))
    return sorted(out)


def test_dead_function_scanner_flags_only_unreferenced_helpers():
    sources = {
        "a": ("def _used(x):\n"
              "    return x\n"
              "def _recursive(n):\n"
              "    return _recursive(n - 1) if n else 0\n"
              "def _dead():\n"
              "    return 1\n"
              "def _by_attribute():\n"
              "    return 2\n"
              "def __dunder__():\n"
              "    return 3\n"
              "def public():\n"
              "    return _used(1)\n"
              "class K:\n"
              "    def _method(self):\n"
              "        return 4\n"),
        "b": ("import a\n"
              "def run():\n"
              "    return a._by_attribute()\n"),
    }
    assert dead_private_functions(sources) == [("a", 3, "_recursive"),
                                               ("a", 5, "_dead")]


def test_no_dead_private_functions():
    sources = {mod: (SRC / mod).read_text() for mod in ALL_MODULES}
    assert dead_private_functions(sources) == []


def _raises_assertion_error(node):
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def bare_asserts(source):
    """Lines of ``assert`` statements and of ``raise AssertionError``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert) or _raises_assertion_error(node))


def test_assert_scanner_flags_every_assert():
    source = ("assert x\n"
              "def f(y):\n"
              "    assert y, 'message'\n"
              "    if not y:\n"
              "        raise ValueError('y')\n")
    assert bare_asserts(source) == [1, 3]


def test_assert_scanner_flags_raised_assertion_errors():
    source = ("def f(y):\n"
              "    if y:\n"
              "        raise AssertionError('unreachable')\n"
              "    try:\n"
              "        raise AssertionError\n"
              "    except AssertionError:\n"
              "        raise\n"
              "    raise ValueError('y')\n")
    assert bare_asserts(source) == [3, 5]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_no_bare_asserts(module):
    assert bare_asserts((SRC / module).read_text()) == []


ELEMENT_CLASSES = ("FieldElem", "ArtinElem")


def element_ladders(source):
    """(line, what) for each use of FieldElem or ArtinElem by name, which
    covers isinstance tests and picks between the two classes, and for
    each ``.idx`` read, the field-only twin of ``.raw``.  Imports alone,
    such as the package's re-exports, are not uses."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id in ELEMENT_CLASSES:
            out.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr == "idx":
            out.append((node.lineno, ".idx"))
    return sorted(out)


def test_element_scanner_flags_only_class_ladders():
    source = ("from .coeffring import ArtinElem, FieldElem, RingElem\n"
              "def f(ring, x, kernel_idx):\n"
              "    if isinstance(x, (FieldElem, ArtinElem)):\n"
              "        return x.raw\n"
              "    mk = FieldElem if ring.n == 1 else ArtinElem\n"
              "    y = x.idx if isinstance(x, RingElem) else x.raw\n"
              "    return ring.from_raw(ring.to_raw(y)), mk, kernel_idx\n")
    assert element_ladders(source) == [
        (3, "ArtinElem"), (3, "FieldElem"), (5, "ArtinElem"),
        (5, "FieldElem"), (6, ".idx")]


@pytest.mark.parametrize("module", [name for name in ALL_MODULES
                                    if name != "coeffring.py"])
def test_only_coeffring_tells_the_element_classes_apart(module):
    assert element_ladders((SRC / module).read_text()) == []


DESCRIPTORS = ("ArtinAlgebraDescriptor", "FieldDescriptor")


def descriptor_constructions(source, factories=()):
    """(line, class) for each call of ArtinAlgebraDescriptor or
    FieldDescriptor, by name or as an attribute, outside the bodies of the
    module-level functions named in factories."""
    tree = ast.parse(source)
    inside = {id(n) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name in factories
              for n in ast.walk(fn)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in DESCRIPTORS:
                out.append((node.lineno, name))
    return sorted(out)


def test_descriptor_scanner_flags_only_calls_outside_the_factories():
    source = ("from . import coeffring\n"
              "from .coeffring import ArtinAlgebraDescriptor, FieldDescriptor\n"
              "def make(base, n):\n"
              "    return ArtinAlgebraDescriptor(base, n)\n"
              "def other(p):\n"
              "    x = isinstance(p, FieldDescriptor)\n"
              "    return coeffring.FieldDescriptor(p, 1, (0, 1)), x\n"
              "def g(base):\n"
              "    return ArtinAlgebraDescriptor(base, 2)\n")
    assert descriptor_constructions(source, ("make",)) == [
        (7, "FieldDescriptor"), (9, "ArtinAlgebraDescriptor")]
    assert descriptor_constructions(source) == [
        (4, "ArtinAlgebraDescriptor"), (7, "FieldDescriptor"),
        (9, "ArtinAlgebraDescriptor")]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_only_the_factories_build_ring_descriptors(module):
    """One descriptor per ring: make_field (through _field_cache) and
    make_artin_algebra are cached, so rings built anywhere else would be
    equal but not identical, and every comparison of them would pay for
    __eq__."""
    factories = ("_field_cache", "make_artin_algebra") if module == "coeffring.py" else ()
    assert descriptor_constructions((SRC / module).read_text(), factories) == []


def generator_complex_builds(source, accessor="_generator_complex"):
    """(line, name) for each call of _generator_actions, by name or as an
    attribute, outside the body of the module-level function accessor:
    the generators' actions on M feed only the differentials that the
    accessor keeps in the character's memo."""
    tree = ast.parse(source)
    inside = {id(n) for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == accessor
              for n in ast.walk(fn)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in inside:
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name == "_generator_actions":
                out.append((node.lineno, name))
    return sorted(out)


def test_generator_complex_scanner_flags_only_builds_outside_the_accessor():
    source = ("from . import cohomology\n"
              "def _generator_complex(ch, top):\n"
              "    return _complex(ch.field, _generator_actions(ch), top)\n"
              "def is_cocycle(ch, x):\n"
              "    d1 = _complex(ch.field, _generator_actions(ch), 1)[1]\n"
              "    gens = cohomology._generator_actions(ch)\n"
              "    return d1, gens, _generator_complex(ch, 1)\n")
    assert generator_complex_builds(source) == [
        (5, "_generator_actions"), (6, "_generator_actions")]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_only_the_memo_accessor_builds_the_generator_complex(module):
    """The differentials of the generator complex on M depend on the
    character alone: every reader takes them from _generator_complex,
    which builds them once per character, and none rebuilds them."""
    assert generator_complex_builds((SRC / module).read_text()) == []
