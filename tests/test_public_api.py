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
    "curl_e": "the standalone forward curl the adjointness and reference tests check",
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


# the Maxwell half of a coupled step is behind `maxwell`'s coupling
# functions: the stepper reads no Maxwell buffer and calls no Yee operator
MAXWELL_OPERATORS = {"fdtd_step", "cells_to_faces", "faces_to_cells", "curl_e"}


def test_dynamics_reads_no_maxwell_workspace():
    tree = ast.parse((PACKAGE / "dynamics.py").read_text())
    found = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "workspace"):
            # the SimState's own workspace is `state.workspace()` or, in
            # its methods, `self.workspace()`
            receiver = node.func.value
            if not (isinstance(receiver, ast.Name) and receiver.id in ("state", "self")):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names
                      if a.name in MAXWELL_OPERATORS]
        elif (isinstance(node, ast.Attribute) and node.attr in MAXWELL_OPERATORS
              and isinstance(node.value, ast.Name) and node.value.id == "maxwell"):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    assert found == []


# the words of the config's presets: the library takes the values they
# stand for (a vector, a current or None), so only the config spells them
PRESET_WORDS = {"zero", "magnetostatic", "pulse", "uniform", "random", "vortexish",
                "snapshot"}


def test_preset_words_are_spelled_in_config_only():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in PRESET_WORDS:
                found.setdefault(node.value, set()).add(path.name)
    assert found == {word: {"config.py"} for word in PRESET_WORDS}


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
