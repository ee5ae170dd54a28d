"""Run every Python block of README.md; a block that raises fails its case.

The blocks run in order, in one namespace, in a temporary directory, so a
later block may use what an earlier one defined and any file they write
stays out of the source tree.
"""
import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    assert BLOCKS, "README.md has no Python block"
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "__main__"}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
