"""Every name the package exports has a use outside the tests, and the
package holds no hidden state."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "aladders"


def exported_names() -> list[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def referenced_names(path: Path) -> set[str]:
    """Names a module loads, reads as an attribute or imports; a definition
    is none of these, and neither is a docstring or a comment."""
    refs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_every_export_is_used_outside_the_tests():
    code = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    code += sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    used = set().union(*map(referenced_names, code))
    readme = (ROOT / "README.md").read_text()
    unused = [name for name in exported_names()
              if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert unused == []


def test_cli_reads_no_private_name_of_another_module():
    """The CLI prints what the library's public calls return."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    modules, private = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:
                modules.update(alias.asname or alias.name for alias in node.names)
            else:
                private.update(f"{node.module}.{alias.name}" for alias in node.names
                               if alias.name.startswith("_"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            private.add(f"{node.value.id}.{node.attr}")
    assert private == set()


def test_no_hidden_state():
    """No context or thread-local variables, and the one global statement
    fills the read-only log-factorial memo."""
    imported, local, writers = set(), [], []

    def visit(node, module, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                imported.update(alias.name for alias in child.names)
            elif isinstance(child, ast.ImportFrom):
                imported.add(child.module)
                if child.module == "threading":
                    local.extend(a.name for a in child.names if a.name == "local")
            elif isinstance(child, ast.Attribute) and child.attr == "local":
                local.append(ast.unparse(child))
            elif isinstance(child, ast.Global):
                writers.append(f"{module}.{func}")
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, module, child.name)
            else:
                visit(child, module, func)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    assert "contextvars" not in imported
    assert local == []
    assert writers == ["zero_modes._log_factorials"]
