"""Import layering of the package, read from the source with ``ast``.

The observables take plain arrays and the config holds plain values, so
neither imports anything of the package; the exact engine needs only the
kernels and the bath arrays; the dense oracle is independent of the
engine it checks.
"""

import ast
import os

import pytest

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "src", "morsebath")


def package_imports(module):
    """Package modules that morsebath/<module>.py imports, at any depth of its code."""
    with open(os.path.join(PACKAGE, f"{module}.py"), encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = set()
    for node in ast.walk(tree):
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


def test_the_reader_finds_the_package_imports():
    # "from .bath import Bath" (cli, oracle) and "from . import kernels" (correlation)
    assert {"bath", "config", "correlation", "dynamics", "observables", "oracle"} \
        <= package_imports("cli")
    assert package_imports("oracle") == {"bath", "morse"}
    assert "kernels" in package_imports("correlation")


def test_config_imports_no_package_module():
    assert package_imports("config") == set()


def test_observables_import_no_package_module():
    assert package_imports("observables") == set()


def test_dynamics_imports_only_kernels_and_bath():
    assert package_imports("dynamics") <= {"kernels", "bath"}


@pytest.mark.parametrize("module", ["oracle", "correlation"])
def test_engine_neighbours_do_not_import_dynamics(module):
    assert "dynamics" not in package_imports(module)
