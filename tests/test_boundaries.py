"""Module boundaries of the package, read from its source without importing it.

The term-dict format of `xcartier.ring`'s polynomials belongs to that module
alone: the `terms` attribute, its `_`-helpers on raw term dicts, its trusted
constructors `_make` and `_from_terms`, and `PolyMatrix.term_grid`.  No other
module imports a `_`-name from it or touches those attributes, with no
exceptions; they read coefficients through the view
`LaurentPoly.coefficients`, which refuses writes.

Nilpotency is decided in one place, `sheaves.nilpotent_within`: no other
function calls the monomial scan `nilpotency_exponent` or squares a matrix
(`x @ x`).

The same parse checks that every module-level import is used and that every
private function or method is called from the package itself.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "xcartier"
RING_ONLY = {"terms", "_make", "_from_terms", "term_grid"}


def modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"), str(path))


def ring_internals(tree: ast.Module) -> list[str]:
    """The `_`-names a module imports from `.ring` and the attributes in
    RING_ONLY it touches, each as 'name (line)'."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "ring":
            found += [f"imports {a.name} ({node.lineno})" for a in node.names
                      if a.name.startswith("_")]
        elif isinstance(node, ast.Attribute) and node.attr in RING_ONLY:
            found.append(f"uses {node.attr} ({node.lineno})")
    return found


def test_only_ring_touches_the_term_dicts():
    strays = [f"{module} {use}" for module, tree in modules() if module != "ring"
              for use in ring_internals(tree)]
    assert strays == []


def nilpotency_deciders(tree: ast.Module):
    """The top-level function around each call of `nilpotency_exponent` and
    each squaring `x @ x` in tree."""
    for top in tree.body:
        for node in ast.walk(top):
            scan = isinstance(node, ast.Call) and "nilpotency_exponent" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))
            square = (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                      and ast.dump(node.left) == ast.dump(node.right))
            if scan or square:
                yield getattr(top, "name", None)


def test_nilpotency_is_decided_only_in_nilpotent_within():
    found = {(module, where) for module, tree in modules() for where in nilpotency_deciders(tree)}
    assert found == {("sheaves", "nilpotent_within")}


def test_the_coefficient_view_refuses_writes():
    from xcartier.ring import LaurentPoly, VarSpec

    f = LaurentPoly.parse("t^2 + 2", VarSpec.make(["t"]), 3)
    view = f.coefficients
    with pytest.raises(TypeError):
        view[(1,)] = 1
    with pytest.raises(TypeError):
        del view[(0,)]
    assert dict(view) == {(2,): 1, (0,): 2} and str(f) == "t^2 + 2"


def test_every_module_level_import_is_used():
    unused = []
    for name, tree in modules():
        if name == "__init__":  # its imports are the package's exports
            continue
        bound = {}
        for stmt in tree.body:
            if isinstance(stmt, ast.Import):
                bound.update((a.asname or a.name.split(".")[0], stmt.lineno) for a in stmt.names)
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                bound.update((a.asname or a.name, stmt.lineno) for a in stmt.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {b}" for b, line in bound.items() if b not in used]
    assert unused == []


def references(node: ast.AST) -> Counter:
    """How often each name is read below node, as a name or an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_private_function_is_called_from_the_package():
    """A `_`-function or `_`-method that only its own body or the tests read is dead."""
    trees = dict(modules())
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    private = [
        (f"{module}.{d.name}", d)
        for module, tree in trees.items()
        for stmt in tree.body
        for d in (stmt.body if isinstance(stmt, ast.ClassDef) else [stmt])
        if isinstance(d, ast.FunctionDef) and d.name.startswith("_")
        and not d.name.endswith("__")
    ]
    assert len(private) > 50  # the walk sees the package's helpers
    dead = [name for name, d in private if everywhere[d.name] == references(d)[d.name]]
    assert dead == []
