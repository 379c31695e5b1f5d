"""No dead public surface: every public top-level function, class and
constant in src/harvest_guard, and every public method of a public
class, must be referenced outside its own definition.

References are the names and attribute names read in src/ (outside the
package `__init__`, whose re-exports are imports, not uses), in
perfbench/ and in README's library example. Tests are not callers, and
neither are perfbench's trace-point attribute strings. A reference from
inside a definition that is itself dead does not count, so a name only a
dead function uses is dead too. Names are matched by their last part, as
vulture does, so `world.slip_stream(...)` keeps every `slip_stream`.

Private top-level functions, classes and constants get the same rule
with src/ as their only callers, so a refactor cannot leave a helper
behind: a reference from perfbench/ or README does not keep one alive,
and neither does one from inside a dead public definition.
"""

from __future__ import annotations

import ast

from conftest import REPO_ROOT
from test_readme import _library_use_block

PACKAGE = REPO_ROOT / "src" / "harvest_guard"

# dead names that an open ROADMAP item wires in or deletes, with that item
ALLOWED = {
    "metrics.SuccessTally": "ROADMAP 'The paper's results table from one log' wires it in or deletes it",
    "metrics.success_rates": "ROADMAP 'The paper's results table from one log' wires it in or deletes it",
    "metrics.CONDITIONS": "ROADMAP 'The paper's results table from one log' wires it in or deletes it",
    "fsm.run_episode": "ROADMAP 'perfbench/ catches up', follow-up: one episode runner",
    "fsm.WorldLike.slip_stream": "ROADMAP 'perfbench/ catches up', follow-up: one episode runner",
    "world.EpisodeWorld.slip_stream": "ROADMAP 'perfbench/ catches up', follow-up: one episode runner",
}


def _definitions(module: str, tree: ast.Module, private: bool = False) -> dict[ast.AST, list[str]]:
    """Each public top-level def, class and assigned name, and each public
    method of a public class: node -> ['module.Name'] or
    ['module.Class.method'], or every public name an assignment binds.
    With `private`, each top-level one whose name starts with one
    underscore instead, and no methods."""

    def wanted(name: str) -> bool:
        return name.startswith("_") == private and not name.startswith("__")

    found: dict[ast.AST, list[str]] = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name) and wanted(n.id)]
            if names:
                found[node] = [f"{module}.{name}" for name in names]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) and wanted(node.name):
            found[node] = [f"{module}.{node.name}"]
            for item in node.body if isinstance(node, ast.ClassDef) and not private else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    found[item] = [f"{module}.{node.name}.{item.name}"]
    return found


def _references(tree: ast.AST, definitions: dict[ast.AST, list[str]], refs: dict[str, list[frozenset[str]]]) -> None:
    """Add each Name and Attribute read in `tree` to `refs`, as name ->
    the definitions each read sits inside."""

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if node in definitions:
            inside = inside.union(definitions[node])
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            refs.setdefault(node.id if isinstance(node, ast.Name) else node.attr, []).append(inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())


def _sources() -> dict[str, ast.Module]:
    """The parsed modules of src/harvest_guard but its `__init__`, by name."""
    sources = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    del sources["__init__"]
    return sources


def _grown(
    definitions: dict[ast.AST, list[str]], refs: dict[str, list[frozenset[str]]], dead: set[str]
) -> set[str]:
    """`dead` plus the definitions with no reference outside themselves
    and outside every dead definition: grown until no new one dies."""
    while True:
        grown = dead | {
            qual for quals in definitions.values() for qual in quals
            if not any(qual not in inside and not inside & dead for inside in refs.get(qual.rsplit(".", 1)[1], ()))
        }
        if grown == dead:
            return dead
        dead = grown


def _dead_surface() -> set[str]:
    """The public definitions with no reference outside themselves and
    outside every dead definition."""
    sources = _sources()
    definitions = {node: quals for module, tree in sources.items() for node, quals in _definitions(module, tree).items()}
    refs: dict[str, list[frozenset[str]]] = {}
    for tree in sources.values():
        _references(tree, definitions, refs)
    for path in sorted((REPO_ROOT / "perfbench").glob("*.py")):
        if not path.name.startswith("test_"):
            _references(ast.parse(path.read_text(encoding="utf-8")), {}, refs)
    _references(ast.parse(_library_use_block()), {}, refs)
    return _grown(definitions, refs, set())


def _dead_private_names() -> set[str]:
    """The private top-level definitions with no reference in src/ outside
    themselves, every dead private one and every dead public one."""
    sources = _sources()
    public = {node: quals for module, tree in sources.items() for node, quals in _definitions(module, tree).items()}
    private = {
        node: quals for module, tree in sources.items() for node, quals in _definitions(module, tree, True).items()
    }
    refs: dict[str, list[frozenset[str]]] = {}
    for tree in sources.values():
        _references(tree, public | private, refs)
    dead_public = _dead_surface()
    return _grown(private, refs, dead_public) - dead_public


def test_every_public_name_has_a_reference():
    dead = _dead_surface()
    assert sorted(dead - ALLOWED.keys()) == [], "public names with no reference outside their definition"
    assert sorted(ALLOWED.keys() - dead) == [], "allow-listed names that now have a caller or are gone"


def test_every_private_name_has_a_caller_in_src():
    assert sorted(_dead_private_names()) == [], "private names with no reference in src/ outside their definition"
