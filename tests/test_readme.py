"""The README's code runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks, "README has no python block"
    assert all("from obsent import" in block for block in blocks)
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
