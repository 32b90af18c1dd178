"""Every public function, class and method of the package has a caller.

A public name defined in ``src/qlip`` counts as called when some name or
attribute reference to it appears in ``src/qlip`` outside its own
definition, anywhere in ``tests/test_acceptance.py`` or ``perfbench/*.py``,
or when ``perfbench/tracer.py``'s ``LAYERS`` list names it.  Type
annotations do not count.  The few names kept only for the tests are listed
in ``ALLOWED``, each with its reason.

Limit: references are matched by name, not resolved, so a method whose name
matches a called method of another class (``to_json``, say) counts as
called.
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


def uncalled():
    """Public names of the package that nothing calls, sorted."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    inside = {}  # name -> (module, line) of each reference in the package
    for module, tree in trees.items():
        for name, line in _references(tree):
            inside.setdefault(name, []).append((module, line))
    outside = set()
    for path in [ROOT / "tests" / "test_acceptance.py",
                 *sorted((ROOT / "perfbench").glob("*.py"))]:
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
