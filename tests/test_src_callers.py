"""Every module-level function and class in src/thetablocks, and every
non-dunder method, property and annotated field of those classes, has a
caller in the program: src/, scripts/ or perfbench/.  Tests do not count, so code that
only tests reach fails here; it belongs in tests/ as a reference, or nowhere.

A reference is an identifier or attribute of that name in the syntax tree.
References inside the definition itself do not count, and neither do those
inside other definitions that have no caller, so a chain of dead helpers
fails as a whole.  Imports and `__all__` entries are not references, so a
re-export in a package `__init__` does not keep a name alive.  A member is
looked up by its own name, so any attribute of that name keeps it alive, and
a helper that shares its name with a live member or field goes unseen here.

A package `__init__` re-exports only what the program imports from the
package: every name it imports must appear in a `from <package> import ...`
(absolute or relative) in src/, scripts/ or perfbench/, other than in that
`__init__` itself."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM = ("src", "scripts", "perfbench")
# overrides that only a library base class calls: argparse calls error()
CALLED_BY_LIBRARY = {"src/thetablocks/cli.py:_Parser.error"}


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions():
    """(path, name, first line, last line) of each module-level def/class and
    of each non-dunder method, property and annotated field of those classes,
    the members named "Class.member"."""
    out = []
    for path in sorted((ROOT / "src" / "thetablocks").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, DEFS):
                continue
            out.append((path, node.name, node.lineno, node.end_lineno))
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if isinstance(member, DEFS):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not (name.startswith("__") and name.endswith("__")):
                    out.append((path, f"{node.name}.{name}", member.lineno, member.end_lineno))
    return out


def _references():
    """name -> [(path, line)] of every identifier and attribute use."""
    refs = {}
    for top in PROGRAM:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                refs.setdefault(name, []).append((path, node.lineno))
    return refs


def uncalled():
    """Names of the definitions with no reference outside dead code."""
    defs, refs = _definitions(), _references()
    dead: set = set()
    while True:
        dead_spans = [(p, a, b) for p, n, a, b in defs if (p, n) in dead]

        def live(ref, own):
            path, line = ref
            return not any(
                path == p and a <= line <= b for p, a, b in dead_spans + [own]
            )

        new = {
            (p, n)
            for p, n, a, b in defs
            if not any(
                live(ref, (p, a, b)) for ref in refs.get(n.rpartition(".")[2], ())
            )
        }
        if new == dead:
            return sorted(f"{p.relative_to(ROOT)}:{n}" for p, n in dead)
        dead = new


def _module(path: Path) -> str:
    """Dotted module name of a file under src/; a package for `__init__`."""
    parts = path.relative_to(ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _from_module(node: ast.ImportFrom, path: Path) -> str:
    """The absolute module a `from ... import` statement in `path` names."""
    if not node.level:
        return node.module
    package = _module(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    base = package[: len(package) - node.level + 1]
    return ".".join(base + ([node.module] if node.module else []))


def unimported_reexports():
    """Each name a package `__init__` in src/thetablocks imports that no
    other program file imports from that package, as "package:name"."""
    taken = set()
    for top in PROGRAM:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.ImportFrom):
                    module = _from_module(node, path)
                    taken.update((module, alias.name) for alias in node.names)
    out = []
    for init in sorted((ROOT / "src" / "thetablocks").rglob("__init__.py")):
        package = _module(init)
        for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if (package, name) not in taken:
                        out.append(f"{package}:{name}")
    return out


def test_every_definition_in_src_has_a_caller():
    assert [n for n in uncalled() if n not in CALLED_BY_LIBRARY] == []


def test_package_inits_reexport_only_what_the_program_imports():
    assert unimported_reexports() == []
