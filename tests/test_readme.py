import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_readme_python_blocks_run():
    # the quickstart is executed, so a renamed or moved name breaks a test, not only the docs
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
