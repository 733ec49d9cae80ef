"""README.md's examples run as written.

Each ```python block runs in a fresh directory, and every `print(...)` line
whose comment promises a value must print it (a trailing "..." promises a
prefix).  Each `lossnet` line of the command-line block must parse, with
its optional brackets dropped and the placeholders N, CAP and SIGMAS given values.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from lossnet import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", README, re.S)


def promised_lines(block):
    return [line.split("#", 1)[1].strip() for line in block.splitlines()
            if line.startswith("print(") and "#" in line]


def test_readme_python_blocks_print_what_their_comments_promise(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    promised = []
    for block in PYTHON_BLOCKS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        printed = out.getvalue().splitlines()
        promised.append(promised_lines(block))
        assert len(printed) == len(promised[-1]), block
        for got, want in zip(printed, promised[-1]):
            assert got.startswith(want[:-3]) if want.endswith("...") else got == want
    assert promised == [[], ["(3, 2) (0, 0) 1.4166...", "True", "1.0", "True"]]
    assert (tmp_path / "q_sweep.csv").is_file()


def command_lines():
    block = README.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.replace("\\\n", " ").splitlines():
        if line.startswith("lossnet "):
            words = shlex.split(line.replace("[", " ").replace("]", " "))
            yield [{"N": "7", "CAP": "7", "SIGMAS": "3"}.get(w, w) for w in words[1:]]


@pytest.mark.parametrize("argv", list(command_lines()), ids=" ".join)
def test_readme_command_lines_parse(argv):
    args = cli.build_parser().parse_args(argv)
    assert args.command == argv[0]
