"""Every name a package module imports is used in that module.

The package has no linter, so deleted code can leave an import behind;
this reads each module's syntax tree.  __init__.py is left out: it imports
names to export them.
"""
import ast
from pathlib import Path

import nearsemiring

# bound in cli so that a tracer can wrap cli.central_elements (see perfbench/tracing.py)
KEPT = {"cli.central_elements"}


def _unused_imports(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return {f"{path.stem}.{name}" for name in imported - used}


def test_no_module_imports_a_name_it_never_uses():
    package = Path(nearsemiring.__file__).parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = set().union(*map(_unused_imports, modules))
    assert unused - KEPT == set()
