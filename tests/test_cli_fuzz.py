"""Fuzz the CLI from its command table.

For each row of ``uvbraid.cli._TABLE``, the examples fill the row's
argument specs with small or malformed values and mix in garbage
tokens.  Whatever the argv, ``run`` must return 0, 2 or 64 without
raising; 2 must come with a message on stderr, and 0 with one JSON
document whose first key is ``schema`` (or DOT text for ``graph dot``,
or the help text for ``-h``).
Numeric flags stay small: ``graph`` refuses large inputs, but the
homomorphism search grows with n and m and the quotient closure with
n, c and d (``quot order --n 5 --c 2 --d 6`` closes 4,320 elements).
"""

import contextlib
import io
import json
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvbraid import cli

ROWS = [row for row in cli._TABLE if row[4] is not None and row[0] != "verify-paper"]

# Plausible values; MALFORMED below adds -1, 0 and non-numbers.
INT_RANGES = {
    "--n": (1, 5),
    "--c": (1, 2),
    "--t": (1, 3),
    "--d": (0, 6),
    "--m": (1, 3),
    "--depth": (0, 3),
    "--width": (1, 50),
    "--max-nodes": (1, 500),
}
MALFORMED = ["-1", "0", "x", "", "1.5", "r9", "r\u00b2", "s1", "--n"]
GARBAGE = ["--bogus", "--n", "--word", "-h", "x", "", "2", "dot", "stats", "r1", "1,0"]
WORDS = st.lists(st.sampled_from(["r1", "r2", "r3", "s1.1", "S2.1", "s1.2", "S3.2"]), max_size=6)
SPECS = st.sampled_from(
    [
        '{"m": 3, "rho": [[2, 1, 3], [1, 3, 2]], "sigma": [[[2, 1, 3]], [[1, 3, 2]]]}',
        '{"m": 3}',
        "[1, 2]",
        "{nope",
        "",
    ]
)


def values(name, spec):
    if name in INT_RANGES:
        return st.integers(*INT_RANGES[name]).map(str)
    if spec.get("type") is float:
        return st.floats(0, 0.5).map(str)
    if name == "--eps":
        return st.lists(st.sampled_from("01"), min_size=1, max_size=4).map(",".join)
    if name == "--file":
        return st.sampled_from(["-", "/nonexistent/spec.json"])
    return WORDS.map(" ".join)


@st.composite
def argvs(draw, row):
    command, mode, _, arguments, _ = row
    argv = [command]
    for name, spec in arguments:
        odd = draw(st.integers(0, 9))
        if odd == 0:  # left out, even when required
            continue
        value = draw(st.sampled_from(MALFORMED) if odd == 1 else values(name, spec))
        argv += [name, value] if name.startswith("--") else [value]
    if mode:  # anywhere after the command, even between an option and its value
        argv.insert(draw(st.integers(1, len(argv))), mode)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(GARBAGE)))
    return argv


@pytest.mark.parametrize("row", ROWS, ids=lambda row: " ".join(filter(None, row[:2])))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_exit_codes_and_output(row, data):
    argv = data.draw(argvs(row))
    stdin = data.draw(SPECS)
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch.object(sys, "stdin", io.StringIO(stdin)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = cli.run(argv)
    assert code in (0, 2, 64), (argv, code)
    if code == 2:
        assert err.getvalue(), argv
    if code == 0 and "-h" not in argv:  # -h prints the help text instead
        text = out.getvalue()
        # the first mode name after the command is the mode
        if argv[0] == "graph" and next(t for t in argv if t in ("dot", "stats")) == "dot":
            assert text.startswith("graph commutation {"), argv
        else:
            assert list(json.loads(text))[0] == "schema", argv
