"""Every name a module of the package imports is used in that module, and
every function, class and public method it defines is used in the package."""

import ast
import os

import pytest

import oaimh

PACKAGE_DIR = os.path.dirname(oaimh.__file__)
MODULES = sorted(name for name in os.listdir(PACKAGE_DIR) if name.endswith(".py"))


def unused_imports(source: str) -> list[str]:
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
    # names listed in __all__ are re-exports
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_modules_found():
    assert "provider.py" in MODULES and "__init__.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


# entry points, and hooks that http.server calls by name
CALLED_FROM_OUTSIDE = {"main", "do_GET", "do_POST", "log_message", "process_request"}


def unused_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes, and public methods, that no module
    names beyond their definition; `__init__` re-exports do not count."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (module, f"{node.name}.{child.name}") for child in node.body
                    if isinstance(child, ast.FunctionDef) and not child.name.startswith("_")
                )
    return sorted(
        f"{module}: {name}" for module, name in defined
        if name.rpartition(".")[2] not in used | CALLED_FROM_OUTSIDE
    )


def test_no_unused_definitions():
    sources = {}
    for module in MODULES:
        with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as fh:
            sources[module] = fh.read()
    assert unused_definitions(sources) == []


def test_checker_flags_an_unused_definition():
    sources = {
        "a.py": "class A:\n    def used(self): pass\n    def spare(self): pass\n"
                "    def _private(self): pass\n"
                "def helper(): return A().used()\ndef orphan(): pass\ndef main(): helper()\n",
        "__init__.py": "from .a import orphan\n__all__ = ['orphan']\n",
    }
    assert unused_definitions(sources) == ["a.py: A.spare", "a.py: orphan"]


def test_checker_flags_an_unused_import():
    source = "import os\nfrom typing import Optional, Union\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["Union (line 2)"]
