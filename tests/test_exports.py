"""Every name the package declares public can be imported from where it is declared."""

import ast
import importlib
import pkgutil
from pathlib import Path

import passive_gd


def test_every_module_defines_its_exports_and_the_package_imports_existing_names():
    # errors declares no __all__; a star import still has to succeed on it.
    for info in pkgutil.iter_modules(passive_gd.__path__):
        module = importlib.import_module(f"passive_gd.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"passive_gd.{info.name}.__all__ names {missing}"
        exec(f"from passive_gd.{info.name} import *", {})
    tree = ast.parse(Path(passive_gd.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        assert node.level == 1, ast.unparse(node)
        module = importlib.import_module(f"passive_gd.{node.module}")
        missing = [a.name for a in node.names if not hasattr(module, a.name)]
        assert not missing, f"passive_gd/__init__.py imports {missing} from {node.module}"
