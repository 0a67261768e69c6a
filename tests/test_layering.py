"""Import layering of the package, checked on the source with ``ast``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pdaprune"


def imported_modules(path):
    """Absolute names of the modules a source file imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "pdaprune" + ("." + base if base else "")
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def test_only_cli_and_package_import_oracle():
    assert (SRC / "oracle.py").is_file()
    importers = {
        path.name
        for path in SRC.glob("*.py")
        if "pdaprune.oracle" in imported_modules(path)
    }
    assert importers <= {"cli.py", "__init__.py"}


def test_no_src_module_imports_tests():
    for path in SRC.glob("*.py"):
        for name in imported_modules(path):
            assert name.split(".")[0] != "tests", (path.name, name)
