"""Every name a module of the package imports is used in that module, every
function, class and public method it defines is used in the package, and no
call decodes or encodes text lossily; `provider serve` starts without the
modules it does not need."""

import ast
import os
import subprocess
import sys

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


LOSSY_ERRORS = {"replace", "ignore"}


def lossy_codec_calls(source: str) -> list[str]:
    """Calls that pass errors="replace" or "ignore" (by keyword, or as the
    second argument of encode or decode): each would turn bytes or text it
    cannot convert into something else without raising."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        values = [kw.value for kw in node.keywords if kw.arg == "errors"]
        if isinstance(node.func, ast.Attribute) and node.func.attr in ("decode", "encode"):
            values += node.args[1:2]
        if any(isinstance(v, ast.Constant) and v.value in LOSSY_ERRORS for v in values):
            found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("module", MODULES)
def test_no_lossy_codec_calls(module):
    with open(os.path.join(PACKAGE_DIR, module), encoding="utf-8") as fh:
        assert lossy_codec_calls(fh.read()) == []


def test_checker_flags_a_lossy_codec_call():
    source = (
        'a = b"x".decode("utf-8", errors="replace")\n'
        'b = b"x".decode("utf-8", "ignore")\n'
        'c = open("f", errors="ignore")\n'
        'd = b"x".decode("utf-8")\n'
        'e = "x".encode("utf-8", errors="surrogateescape")\n'
    )
    assert lossy_codec_calls(source) == ["line 1", "line 2", "line 3"]


def test_checker_flags_an_unused_import():
    source = "import os\nfrom typing import Optional, Union\nx: Optional[int] = os.sep\n"
    assert unused_imports(source) == ["Union (line 2)"]


def test_provider_cli_imports_neither_urllib_request_nor_xml_sax():
    # each costs `provider serve` start-up time and memory, and neither is used
    src = os.path.dirname(PACKAGE_DIR)
    code = (
        "import sys; import oaimh.provider_cli; "
        "print(sorted(m for m in sys.modules if m == 'urllib.request' or "
        "m == 'xml.sax' or m.startswith('xml.sax.')))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "[]\n"
