"""Every public top-level function and class of the package is reached by
the package itself or by the benchmark, or is named here with a reason;
and every module-level import of the package and of the tests is read."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spinlayer"
TESTS = ROOT / "tests"

# public names that only tests and the package exports reach, and why they stay
REACHED_BY_TESTS_ONLY = {
    "energy_inequality_residual": "acceptance criterion 3 scores the ledger with it",
    "stationarity_residual": "acceptance criterion 7 scores the end state with it",
    "laplacian_neumann": "the flux kernel at coefficient 1, the oracle of its tests",
    "curl_h": "the standalone backward curl the adjointness and reference tests check",
}


def _public_definitions():
    """{name: module file} of the public top-level defs and classes."""
    defs = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[node.name] = path.name
    return defs


def _referenced_names():
    """Every name a Name, Attribute or ImportFrom refers to in the package
    (its __init__ aside, which only re-exports) and in bench/."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "bench").rglob("*.py")
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


def test_no_unreached_public_api():
    used = _referenced_names()
    unreached = sorted(name for name in _public_definitions() if name not in used)
    assert unreached == sorted(REACHED_BY_TESTS_ONLY)


def _unused_imports(path):
    """Names bound by the module-level imports of `path` that no Name in
    the module reads."""
    tree = ast.parse(path.read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_no_unused_imports():
    # the package's __init__ imports its exports, which nothing there reads
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += TESTS.glob("*.py")
    unused = {path.relative_to(ROOT).as_posix(): sorted(names)
              for path in sorted(paths) if (names := _unused_imports(path))}
    assert unused == {}
