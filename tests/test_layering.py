"""Import layering of the package, read from the source with ``ast``.

The observables take plain arrays and the config holds plain values, so
neither imports anything of the package; the exact engine needs only the
kernels and the bath arrays; the dense oracle is independent of the
engine it checks.  The per-mode view of the bath exists only for the
benchmark's references, so only the two modules that define it name it.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "morsebath")
MODULES = sorted(name[:-3] for name in os.listdir(PACKAGE) if name.endswith(".py"))
# the per-mode view of the bath and its chi, which only morsebench/ imports
VIEW = {"BathConfig", "BathMode", "discretize", "chi_series", "SystemConfig"}


def syntax_tree(module):
    with open(os.path.join(PACKAGE, f"{module}.py"), encoding="utf-8") as handle:
        return ast.parse(handle.read())


def package_imports(module):
    """Package modules that morsebath/<module>.py imports, at any depth of its code."""
    found = set()
    for node in ast.walk(syntax_tree(module)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
            found.update(path[1] for path in paths if path[0] == "morsebath" and len(path) > 1)
        elif isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if not path or path[0] != "morsebath":
                    continue
                path = path[1:]
            # "from . import kernels" names modules; "from .bath import Bath" one module
            found.update(path[:1] or [alias.name for alias in node.names])
    return found


def names(module):
    """Every name that morsebath/<module>.py imports, defines, reads or holds as a string."""
    found = set()
    for node in ast.walk(syntax_tree(module)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update((node.name, node.asname))
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_the_reader_finds_the_package_imports():
    # "from .bath import Bath" (cli, oracle) and "from . import kernels" (correlation)
    assert {"bath", "config", "correlation", "dynamics", "observables", "oracle"} \
        <= package_imports("cli")
    assert package_imports("oracle") == {"bath", "morse"}
    assert "kernels" in package_imports("correlation")
    # "from .dynamics import chi_traces" and its "__all__" entry; the view's own modules
    assert "chi_traces" in names("__init__") and "__all__" in names("__init__")
    assert {"BathConfig", "BathMode", "discretize"} <= names("bath")
    assert {"SystemConfig", "chi_series", "BathMode"} <= names("dynamics")


def test_config_imports_no_package_module():
    assert package_imports("config") == set()


def test_observables_import_no_package_module():
    assert package_imports("observables") == set()


def test_dynamics_imports_only_kernels_and_bath():
    assert package_imports("dynamics") <= {"kernels", "bath"}


@pytest.mark.parametrize("module", ["oracle", "correlation"])
def test_engine_neighbours_do_not_import_dynamics(module):
    assert "dynamics" not in package_imports(module)


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ("bath", "dynamics")])
def test_only_bath_and_dynamics_name_the_per_mode_view(module):
    assert not VIEW & names(module)
