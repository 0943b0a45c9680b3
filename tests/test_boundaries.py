"""Module boundaries of the package, read from its source without importing it.

`xcartier.ring` alone knows the term-dict format of its polynomials: its
`_`-helpers on raw term dicts, its trusted constructors `_make` and
`_from_terms`, and `PolyMatrix.term_grid`.  Two places outside it stay on raw
terms, and they are listed here by name:

* the atlas's Deligne-Illusie kernels, whose port onto the public
  operations made the lemma checks about a quarter slower;
* the gauge search in `transforms`, which the roadmap replaces by a closed
  formula.

The same parse checks that every module-level import is used.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "xcartier"
TRUSTED = {"_make", "_from_terms", "term_grid"}

# module -> enclosing top-level definition (None: anywhere) -> ring internals used there
RAW_TERM_USERS = {
    "atlas": {
        None: {"_check_ring", "_deriv_terms", "_divided_by_p", "_reduced_terms", "_sum_terms"},
        "verify_deligne_illusie": {"term_grid"},
    },
    "transforms": {
        "_gauge_solution_spaces": {"term_grid", "_product_terms"},
        "_unit_residual": {"_reduced_terms", "_sum_terms"},
        "_combine": {"_from_terms"},
    },
}


def modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"), str(path))


def ring_internals(tree: ast.Module) -> tuple[set[str], set[tuple[str | None, str]]]:
    """The `_`-names a module imports from `.ring`, and every use of a ring
    internal, one of those names or an attribute in TRUSTED, as (enclosing
    top-level definition or None, name)."""
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "ring"
        for alias in node.names if alias.name.startswith("_")
    }
    uses = set()
    for stmt in tree.body:
        scope = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id in imported:
                uses.add((scope, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in TRUSTED:
                uses.add((scope, node.attr))
    return imported, uses


def test_only_ring_and_the_listed_kernels_touch_the_term_dicts():
    strays, listed = [], set()
    for module, tree in modules():
        if module == "ring":
            continue
        allowed = RAW_TERM_USERS.get(module, {})
        imported, uses = ring_internals(tree)
        strays += [f"{module} imports {name}" for name in sorted(imported)
                   if not any(name in names for names in allowed.values())]
        for scope, name in sorted(uses, key=str):
            where = scope if name in allowed.get(scope, ()) else None
            if name in allowed.get(where, ()):
                listed.add((module, where, name))
            else:
                strays.append(f"{module}.{scope or '<module>'} uses {name}")
    assert strays == []
    # and the list names nothing the code no longer uses
    assert listed == {
        (module, scope, name)
        for module, scopes in RAW_TERM_USERS.items()
        for scope, names in scopes.items()
        for name in names
    }


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
