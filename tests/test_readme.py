"""The README's examples, run as written, so the docs cannot drift from
the code."""

import re
import shlex
from pathlib import Path

from thinlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(lang: str = "") -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_classify_examples_print_what_they_show(capsys):
    examples = [
        example.rstrip("\n") + "\n"
        for block in code_blocks()
        for example in block.split("\n\n")
        if example.startswith("$ thinlab classify") and "--no-timing" in example
    ]
    assert len(examples) == 2
    for example in examples:
        command, shown = example.split("\n", 1)
        main(shlex.split(command)[2:])
        assert capsys.readouterr().out == shown


def test_readme_library_example_runs(capsys):
    (block,) = code_blocks("python")
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("digraph derivation_tree {")
