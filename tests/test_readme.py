"""The README's code stays in step with the package's public names."""

import ast
import re
from pathlib import Path

import obsent

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_imports_exist():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no python block"
    names = [alias.name
             for block in blocks
             for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) and node.module == "obsent"
             for alias in node.names]
    assert names, "README's python blocks import nothing from obsent"
    assert [name for name in names if not hasattr(obsent, name)] == []
