"""Layout of the package: every module has a caller."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_names(path, name):
    """Absolute names of the modules the file imports, and of every name
    a from-import takes from them (which may be submodules)."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                mod = base + "." + mod if mod else base
            out.add(mod)
            out.update(mod + "." + a.name for a in node.names)
    return out


def test_every_module_is_imported_by_another():
    files = {_module_name(p): p for p in (SRC / "hexacent").rglob("*.py")}
    imported = set()
    for name, path in files.items():
        imported |= _imported_names(path, name) - {name}
    # packages are entered through their __init__, and the command line
    # through the console scripts in pyproject.toml
    scripts = re.findall(r'^[\w-]+\s*=\s*"([\w.]+):\w+"\s*$',
                         (ROOT / "pyproject.toml").read_text(), re.M)
    entry = {n for n, p in files.items() if p.name == "__init__.py"}
    entry |= set(scripts)
    assert sorted(set(files) - entry - imported) == []
