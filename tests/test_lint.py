"""Static checks of the package sources that need no linter installed."""
import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "mhdfem")
                 .glob("*.py"))


def unused_imports(text):
    """Names a module imports and never reads; an import statement with
    `# noqa: F401` on one of its lines is a deliberate re-export."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = set()
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"
                or any("noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno])):
            continue
        imported.update((a.asname or a.name).split(".")[0]
                        for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_import_is_caught():
    assert unused_imports("import json\nimport os\nos.getcwd()\n") == ["json"]
    assert unused_imports("from m import (a,  # noqa: F401\n    b)\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
