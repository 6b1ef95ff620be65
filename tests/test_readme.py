"""README's Library section against the package's top-level exports."""

import re
from pathlib import Path

import hwfatigue

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["results"] and "fatigued" in namespace


def test_exports_resolve_and_are_documented():
    library = README.read_text().split("## Library", 1)[1].split("\n## ", 1)[0]
    for name in hwfatigue.__all__:
        assert getattr(hwfatigue, name) is not None
        assert f"`{name}`" in library
