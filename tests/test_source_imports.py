"""No module of the package keeps a module-level import it never reads.

A static check on the source with `ast` (no lint tool is needed): every name a
module-level `import` binds must be read somewhere in the module.  `from
__future__` imports and imports under `if TYPE_CHECKING:` are exempt.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hubbard_gf"


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports and never loaded in the module."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in loaded]


def test_the_check_flags_an_unused_import_and_spares_the_exempt_ones():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import TYPE_CHECKING\n"
        "from json import dumps as to_json, loads\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "def f(x: OrderedDict) -> float:\n"
        "    return math.pi + len(os.sep) + len(to_json(x))\n"
    )
    assert _unused_imports(source) == ["loads (line 5)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_keeps_an_unused_import(path):
    assert _unused_imports(path.read_text()) == []
