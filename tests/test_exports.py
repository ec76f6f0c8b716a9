"""Every name the package declares public can be imported from where it is declared."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
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


def test_importing_the_cli_loads_neither_concurrent_futures_nor_logging():
    # Import time is most of a fresh process's set-up; bench threads with
    # ``threading`` alone, which numpy loads anyway.
    env = {**os.environ, "PYTHONPATH": str(Path(passive_gd.__file__).resolve().parents[1])}
    code = ("import passive_gd.cli, sys; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
