"""Every public top-level function and class of the package is reached by
the package itself or by the benchmark, or is named here with a reason;
and every module-level import of the package and of the tests is read."""

import ast
import pathlib

from spinlayer import maxwell
from spinlayer.diagnostics import CSV_COLUMNS
from spinlayer.energetics import EnergyBreakdown

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "spinlayer"
TESTS = ROOT / "tests"

# public names that only tests and the package exports reach, and why they stay
REACHED_BY_TESTS_ONLY = {
    "energy_inequality_residual": "acceptance criterion 3 scores its last row with it",
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
# (the curls' only entries are `_curl_views` and `_apply_curl`)
MAXWELL_OPERATORS = {"fdtd_step", "cells_to_faces", "faces_to_cells", "_apply_curl",
                     "_curl_views"}


def test_maxwell_operators_exist():
    # a guard on a name that is gone guards nothing
    assert sorted(name for name in MAXWELL_OPERATORS if not hasattr(maxwell, name)) == []


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


# the ledger's energy columns are the fields of `EnergyBreakdown`, declared
# once: no module spells a column's name, which it reads through the class
def test_energy_columns_are_spelled_as_fields_only():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in EnergyBreakdown.COLUMNS:
                found.setdefault(node.value, set()).add(f"{path.name}:{node.lineno}")
    assert found == {}


def test_readme_lists_the_energy_csv_columns():
    text = (ROOT / "README.md").read_text()
    intro = "`energy.csv` has one row per logged step with the fixed columns"
    assert intro in text
    block = text.split(intro, 1)[1].split("```")[1]
    assert tuple(c.strip() for c in block.split(",")) == CSV_COLUMNS


# the spacer layer is the geometry's (`DomainGeometry.layer_cells`): the
# words that name it are spelled only by the config and by the scheme's
# bc_mode check in dynamics, and no energy, field or diagnostic takes one
LAYER_WORDS = {"sharp", "thin_layer"}


def test_layer_words_are_spelled_in_config_and_dynamics_only():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in LAYER_WORDS:
                found.setdefault(node.value, set()).add(path.name)
    assert set(found) == LAYER_WORDS
    assert set().union(*found.values()) <= {"config.py", "dynamics.py"}, found


def test_m_bar_face_has_one_caller():
    # div(h + m_bar) is one kernel, `maxwell._div_terms`: the
    # projection's rhs and check and the ledger's drift all form m_bar
    # through it
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "_m_bar_face":
                    callers.append(f"{path.name}:{node.lineno}")
    assert len(callers) == 1, callers


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
