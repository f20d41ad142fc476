"""The package's public names (`blinkpipe.__all__`) and its imports."""
from __future__ import annotations

import ast
from pathlib import Path

import blinkpipe

_ROOT = Path(__file__).resolve().parent.parent

# Imports that are kept on purpose although the module never reads them.
_KEPT_IMPORTS = {
    # Re-exported: the wire path raises it, and callers catch it from proto.
    ("src/blinkpipe/proto.py", "NonFiniteFeature"),
}


def test_every_listed_name_resolves_on_the_package():
    missing = [name for name in blinkpipe.__all__ if not hasattr(blinkpipe, name)]
    assert missing == []


def test_no_name_is_listed_twice():
    assert len(set(blinkpipe.__all__)) == len(blinkpipe.__all__)


def test_removed_wrappers_stay_gone():
    # FrameValidator().validate and BlinkSegmenter.effective_gaze replace them.
    for name in ("validate_frame", "effective_gaze"):
        assert name not in blinkpipe.__all__
        assert not hasattr(blinkpipe, name)


def _unused_imports(tree: ast.Module):
    """(line, name) of each name a module imports and never reads."""
    imported = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_no_module_imports_a_name_it_never_reads():
    unused = []
    for top in ("src", "tests"):
        for path in sorted((_ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":  # imports there are the package's names
                continue
            rel = path.relative_to(_ROOT).as_posix()
            for line, name in _unused_imports(ast.parse(path.read_text(), rel)):
                if (rel, name) not in _KEPT_IMPORTS:
                    unused.append(f"{rel}:{line}: {name}")
    assert unused == []
