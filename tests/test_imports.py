"""Imports: every name a package module imports is used in that module, and the
search and quotient paths leave numpy.ma unimported.

The package has no linter, so deleted code can leave an import behind;
this reads each module's syntax tree.  __init__.py is left out: it imports
names to export them.
"""
import ast
import os
import subprocess
import sys
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


def test_search_and_quotients_leave_numpy_ma_unimported():
    # a plain np.unique imports numpy.ma, about 1 MB, on its first call
    code = """if True:
        import sys
        import nearsemiring as nsr
        nsr.enumerate_models(4, nsr.parse_constraint("involutive-integral"))
        algebra = nsr.fixtures.fixture("MV3xBOOL2")
        for theta in nsr.all_congruences(algebra):
            nsr.quotient_algebra(algebra, theta)
        print("numpy.ma" in sys.modules)
    """
    path = str(Path(nearsemiring.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    assert run.stdout == "False\n"
