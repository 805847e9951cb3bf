"""Cross-references from code and docs to README sections and to the
package's names."""

import ast
import importlib
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (see README, "Title"), possibly broken across comment lines.
CITATION = re.compile(r'see README,[\s#]+"([^"]+)"')


def _readme_of(path: Path) -> Path:
    """The README.md a file means: the one in its directory or the nearest
    one above it."""
    for directory in path.parents:
        if (directory / "README.md").exists():
            return directory / "README.md"
    raise AssertionError(f"no README.md above {path}")


def _headings(readme: Path) -> set:
    titles, fenced = set(), False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and line.startswith("#"):
            titles.add(line.lstrip("#").strip())
    return titles


def test_readme_citations_name_existing_headings():
    citations = []
    for top in ("bench", "src"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.suffix not in (".py", ".md"):
                continue
            for title in CITATION.findall(path.read_text(encoding="utf-8")):
                citations.append((path, title))
    assert citations, "no README citation found; has the pattern drifted?"
    missing = [(str(path.relative_to(ROOT)), title) for path, title in citations
               if title not in _headings(_readme_of(path))]
    assert not missing


# A backticked name with a dot in it: `kernel.evaluate_facts`,
# ``FiniteDiagram.insert``.  Spans that are file names are skipped.
DOTTED = re.compile(r"(`+)([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)\1")
FILE_SUFFIXES = (".py", ".json", ".jsonl", ".md", ".txt")


def _inline_text(readme: Path) -> str:
    """The README's text outside fenced code blocks."""
    kept, fenced = [], False
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced:
            kept.append(line)
    return "\n".join(kept)


def _docstrings(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    nodes = [n for n in ast.walk(tree) if isinstance(
        n, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return [doc for doc in map(ast.get_docstring, nodes) if doc]


def _resolves(name: str, modules: dict) -> bool:
    """name's head is the package, one of its modules, a name one of its
    modules defines or imports, or a standard-library module; and each
    later part is an attribute of the part before it."""
    head, *rest = name.split(".")
    if head in modules:
        owners = [modules[head]]
    elif head in sys.stdlib_module_names:
        owners = [importlib.import_module(head)]
    else:
        owners = [getattr(m, head) for m in modules.values() if hasattr(m, head)]
    for owner in owners:
        for part in rest:
            if not hasattr(owner, part):
                break
            owner = getattr(owner, part)
        else:
            return True
    return False


def test_dotted_names_in_docs_resolve():
    """A name deleted from the package does not linger in README.md or in
    a docstring."""
    package = ROOT / "src" / "embedlab"
    modules = {"embedlab": importlib.import_module("embedlab")}
    for path in sorted(package.glob("*.py")):
        if path.stem != "__init__":
            modules[path.stem] = importlib.import_module(f"embedlab.{path.stem}")
    texts = [("README.md", _inline_text(ROOT / "README.md"))]
    texts += [(path.name, doc) for path in sorted(package.glob("*.py"))
              for doc in _docstrings(path)]
    names = [(where, m.group(2)) for where, text in texts
             for m in DOTTED.finditer(text) if not m.group(2).endswith(FILE_SUFFIXES)]
    assert names, "no dotted name found; has the pattern drifted?"
    assert [(where, name) for where, name in names if not _resolves(name, modules)] == []


def _definitions(tree: ast.Module) -> list:
    """(name, statement) for each module-level function, class or
    constant."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        found += [(name, node) for name in names]
    return found


def _reads(trees) -> dict:
    """name -> the nodes of trees that read it, as a name or an attribute."""
    uses: dict = {}
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                uses.setdefault(n.id, []).append(n)
            elif isinstance(n, ast.Attribute):
                uses.setdefault(n.attr, []).append(n)
    return uses


def _unread(definitions, uses: dict) -> list:
    """module.name of each (module, name, statement) that nothing in uses
    reads outside the statement itself."""
    unused = []
    for module, name, node in definitions:
        own = set(map(id, ast.walk(node)))
        if all(id(n) in own for n in uses.get(name, ())):
            unused.append(f"{module}.{name}")
    return unused


def test_private_names_have_a_user():
    """Every module-level _name in the package is read somewhere in the
    package outside its own definition, so a helper does not stay behind
    after its last caller moved away."""
    package = ROOT / "src" / "embedlab"
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    definitions = [(module, name, node) for module, tree in trees.items()
                   for name, node in _definitions(tree)
                   if name.startswith("_") and not name.startswith("__")]
    assert definitions, "no private name found; has the walk drifted?"
    assert _unread(definitions, _reads(trees.values())) == []


def _is_click_command(node) -> bool:
    """A function a ``command`` or ``group`` decorator call registers with
    the CLI, such as ``@main.command()``."""
    return isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group") for d in node.decorator_list)


def test_public_names_have_a_user():
    """Every module-level public name in the package is read in the
    package or the bench outside its own definition, re-exported by
    embedlab/__init__.py, or a click command, so a name that only tests
    use lives in the tests."""
    package = ROOT / "src" / "embedlab"
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(package.glob("*.py"))}
    bench = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "bench").glob("*.py"))]
    exported = set(importlib.import_module("embedlab").__all__)
    definitions = [(module, name, node) for module, tree in modules.items()
                   if module != "__init__" for name, node in _definitions(tree)
                   if not name.startswith("_") and name not in exported
                   and not _is_click_command(node)]
    assert definitions, "no public name found; has the walk drifted?"
    assert _unread(definitions, _reads([*modules.values(), *bench])) == []
