"""Every public function, class and method of the package has a caller,
and every defaulted parameter has a caller that sets it.

A public name defined in ``src/qlip`` counts as called when some name or
attribute reference to it appears in ``src/qlip`` outside its own
definition, anywhere in ``tests/test_acceptance.py`` or ``perfbench/*.py``,
or when ``perfbench/tracer.py``'s ``LAYERS`` list names it.  Type
annotations do not count.  The few names kept only for the tests are listed
in ``ALLOWED``, each with its reason.

A defaulted parameter of any function or method in ``src/qlip`` counts as
live when some call in those same files passes it a non-literal expression
(a ``*`` or ``**`` argument that may reach it counts as one), or when those
calls show two distinct literals, the default counting as one literal when
a call omits the argument.  A parameter that is not live is a constant in
disguise.  The few kept for the tests are listed in ``PARAMETERS_ALLOWED``.

Limit: references and calls are matched by name, not resolved, so a method
whose name matches a called method of another class (``to_json``, say)
counts as called, and a call of a class counts as a call of its
``__init__``.
"""
import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qlip"

ALLOWED = {
    "currents.mass_and_excess":
        "oracle: the Taylor-remainder cross-check of ExcessField",
    "currents.excess_two_ways":
        "oracle: the tangent-defect cross-check of ExcessField.ball_excess",
    "embed.face_of_point":
        "oracle: the every-face-recovered property of the face lattice",
}

PARAMETERS_ALLOWED = {
    "coneproj.pava_pinned(pinned)":
        "oracle: the pinned isotonic regression's brute-force cross-check",
    "currents.mass_and_excess(region)":
        "oracle: the Taylor-remainder cross-check of ExcessField",
    "currents.bv_functional(regions)":
        "the random-region property test of the BV inequality",
    "roproj.AlmostProjection.rho_flat(assume_on_image)":
        "the on-cone input check, which production calls skip",
}


class _References(ast.NodeVisitor):
    """(name, line) of every Name and Attribute reference, skipping
    annotations."""

    def __init__(self):
        self.found = []

    def visit_Name(self, node):
        self.found.append((node.id, node.lineno))

    def visit_Attribute(self, node):
        self.found.append((node.attr, node.lineno))
        self.visit(node.value)

    def visit_arg(self, node):
        pass  # an argument's name and annotation

    def visit_FunctionDef(self, node):
        for child in (node.decorator_list + node.args.defaults
                      + [d for d in node.args.kw_defaults if d] + node.body):
            self.visit(child)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_AnnAssign(self, node):
        self.visit(node.target)
        if node.value is not None:
            self.visit(node.value)


def _references(tree):
    refs = _References()
    refs.visit(tree)
    return refs.found


def _public_definitions(module, tree):
    """(qualified name, bare name, first line, last line) of each public
    module-level function and class and each public method of a public
    class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                or node.name.startswith("_"):
            continue
        yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _traced():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import tracer
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return {f"{layer.module}.{layer.symbol}" for layer in tracer.LAYERS}


def _package_trees():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def _outside_paths():
    return [ROOT / "tests" / "test_acceptance.py",
            *sorted((ROOT / "perfbench").glob("*.py"))]


def uncalled():
    """Public names of the package that nothing calls, sorted."""
    trees = _package_trees()
    inside = {}  # name -> (module, line) of each reference in the package
    for module, tree in trees.items():
        for name, line in _references(tree):
            inside.setdefault(name, []).append((module, line))
    outside = set()
    for path in _outside_paths():
        outside.update(name for name, _ in _references(ast.parse(path.read_text())))
    traced = _traced()
    missing = []
    for module, tree in trees.items():
        for qual, name, first, last in _public_definitions(module, tree):
            if qual in traced or name in outside or any(
                    m != module or not first <= line <= last
                    for m, line in inside.get(name, ())):
                continue
            missing.append(qual)
    return sorted(missing)


def test_every_public_name_has_a_caller():
    missing = [name for name in uncalled() if name not in ALLOWED]
    assert missing == [], "public names that nothing calls: " + ", ".join(missing)


def test_allowlist_is_current():
    # an allowed name that gained a caller, or was deleted, leaves the list
    assert sorted(ALLOWED) == [name for name in uncalled() if name in ALLOWED]


def _defaulted(module, tree):
    """(label, called name, positional names, defaults) of each function
    with defaulted parameters: the positional names leave out a method's
    self or cls, the called name of an __init__ is its class's, and defaults
    maps each defaulted parameter to its default expression."""
    def visit(node, cls):
        for item in ast.iter_child_nodes(node):
            if isinstance(item, ast.ClassDef):
                yield from visit(item, item)
            elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = item.args
                pos = [x.arg for x in a.posonlyargs + a.args]
                defaults = dict(zip(pos[len(pos) - len(a.defaults):], a.defaults))
                defaults.update((x.arg, d) for x, d in zip(a.kwonlyargs, a.kw_defaults)
                                if d is not None)
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                skip = 1 if cls is not None and not static else 0
                called = cls.name if item.name == "__init__" else item.name
                label = ".".join([module] + ([cls.name] if cls else []) + [item.name])
                if defaults:
                    yield label, called, pos[skip:], defaults
                yield from visit(item, None)
    yield from visit(tree, None)


_NOT_LITERAL = object()


def _literal(node):
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return _NOT_LITERAL


def _passed(call, pos, name, default):
    """What `call` gives parameter `name`: a literal's repr, _NOT_LITERAL,
    or for an omitted argument its default (as one value, literal or not)."""
    if name in pos:
        i = pos.index(name)
        for j, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred) and j <= i:
                return _NOT_LITERAL
            if j == i:
                return _literal(arg)
    for kw in call.keywords:
        if kw.arg == name:
            return _literal(kw.value)
        if kw.arg is None:
            return _NOT_LITERAL
    value = _literal(default)
    return "default " + ast.unparse(default) if value is _NOT_LITERAL else value


def constant_parameters():
    """Defaulted parameters of the package that no call outside the tests
    sets, as "module.function(parameter)", sorted."""
    calls = {}  # called name -> Call nodes outside the tests
    for tree in [*_package_trees().values(),
                 *(ast.parse(p.read_text()) for p in _outside_paths())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                calls.setdefault(name, []).append(node)
    out = []
    for module, tree in _package_trees().items():
        for label, called, pos, defaults in _defaulted(module, tree):
            for name, default in defaults.items():
                seen = {_passed(c, pos, name, default)
                        for c in calls.get(called, ())}
                if _NOT_LITERAL not in seen and len(seen) < 2:
                    out.append(f"{label}({name})")
    return sorted(out)


def test_every_defaulted_parameter_is_set():
    constant = [p for p in constant_parameters() if p not in PARAMETERS_ALLOWED]
    assert constant == [], (
        "defaulted parameters that no call outside the tests sets: "
        + ", ".join(constant))


def test_parameter_allowlist_is_current():
    assert sorted(PARAMETERS_ALLOWED) == [
        p for p in constant_parameters() if p in PARAMETERS_ALLOWED]
