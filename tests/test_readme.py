"""README's Library section against the package's top-level exports, and
its command lines against the CLI's parser."""

import re
import shlex
from pathlib import Path

import pytest

import hwfatigue
from hwfatigue.cli import build_parser

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


def test_command_lines_parse():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("hwfatigue ")]
    assert len(lines) == 4
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")
