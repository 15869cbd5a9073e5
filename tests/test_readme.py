"""README drift guard: its command lines run, and its sample output is exact."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from uvbraid.cli import run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def section(title):
    return README.split(f"\n{title}\n", 1)[1]


def first_sh_block(text):
    return text.split("```sh\n", 1)[1].split("```", 1)[0]


def run_captured(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def test_readme_library_quickstart_prints_its_comments():
    block = section("## Library quickstart").split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    assert out.getvalue().splitlines() == expected
    assert expected == ["['d1.3.1'] (1 2)", "True"]


# verify-paper and ``hom check --file images.json`` have their own tests.
COMMAND_LINES = [
    shlex.split(line, comments=True)[1:]
    for line in first_sh_block(section("## Command line")).splitlines()
    if line.startswith("uvbraid ") and "verify-paper" not in line and "images.json" not in line
]


def test_readme_lists_the_command_lines():
    assert len(COMMAND_LINES) == 18
    assert ["graph", "--n", "4", "--c", "1", "stats"] in COMMAND_LINES


@pytest.mark.parametrize("argv", COMMAND_LINES, ids=" ".join)
def test_readme_command_line_runs(argv):
    code, out = run_captured(argv)
    assert code == 0, out
    assert out


SAMPLES = re.findall(
    r"^\$ uvbraid (.*)\n((?:.+\n)+)", first_sh_block(section("A taste of the output:")), re.M
)


def test_readme_has_two_samples():
    assert len(SAMPLES) == 2


@pytest.mark.parametrize("command, expected", SAMPLES, ids=[c for c, _ in SAMPLES])
def test_readme_sample_output_is_exact(command, expected):
    assert run_captured(shlex.split(command)) == (0, expected)
