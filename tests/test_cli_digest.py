"""Golden digest of the CLI: one sha256 per command over a fixed argv grid.

Each digest covers, for every argv in its grid, the exit code, stdout and
stderr of an in-process ``run`` with ``COLUMNS=80``.  A refactor that must
keep the output byte-identical keeps these digests; a deliberate output
change updates the one digest it touches and says why.

To print the current digests after such a change:

    PYTHONPATH=src python tests/test_cli_digest.py
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
from unittest import mock

import pytest

from uvbraid.cli import run

GRAPH_COMMANDS = (
    ("graph", "stats"),
    ("graph", "dot"),
    ("vcd",),
    ("howson",),
    ("lerf-witness",),
    ("center-witness",),
)
QUOT_WORDS = ("", "s1.1 r1 S1.1", "r1 s1.2 s1.2 s1.2", "s2.1 r3 s4.1 S2.1 r1")
WORDS = ("", "r1 s2.1", "r1 s2.1 r1 S3.2 r2 s1.1", "r3 s1.2 S1.2 r3 s2.1 r1 r2", "r4")
PAIRS = (("r1 s2.1 r1", "r2 s1.1 r2"), ("r1 s1.1", "s1.1 r1"), ("s1.1 S1.1", ""))
PHI_WORD = "r1 s1.1 r1 S1.1 s1.1"
BUDGET_CASES = (("6", "6", "3", "300"), ("5", "2", "4", "100"), ("5", "1", "5", "2000"))
# Per strand count: the README pair, a pair equal by one relator inserted
# inside another, and a pair made unequal by one flipped crossing; {c} is
# the colour.  UV(1, c) has no letters, so its second pair is refused, and
# at n = 2 the only relator r1 r1 is absorbed by free reduction.
ORACLE_PAIRS = {
    1: (("", ""), ("r1", "")),
    2: (("r1 s1.{c}", "r1 s1.{c} r1 r1"), ("r1 s1.{c}", "r1 S1.{c}")),
    3: (
        ("r1 s2.1 r1", "r2 s1.1 r2"),
        ("s1.{c} r2", "s1.{c} r1 r2 s1.{c} r2 r1 r2 r1 r2 r1 r2 r1 S2.{c} r2"),
        ("r1 s2.{c} r1", "r1 S2.{c} r1"),
    ),
    4: (
        ("r1 s2.1 r1", "r2 s1.1 r2"),
        ("r2 s3.{c}", "r2 s1.{c} r3 r1 r3 r1 r3 S1.{c} r3 s3.{c}"),
        ("s1.{c} r3 r2", "S1.{c} r3 r2"),
    ),
}
# (depth, width): every depth at the CLI's width, then frontier overflow.
ORACLE_BUDGETS = tuple((d, 300) for d in range(7)) + ((6, 1), (6, 5))


def _nc(n, c):
    return ["--n", str(n), "--c", str(c)]


def grid():
    """Command name -> its argv list."""
    cases = {
        " ".join(cmd): [[*cmd, *_nc(n, c)] for n in range(1, 9) for c in range(1, 4)]
        for cmd in GRAPH_COMMANDS
    }
    cases["quot order"] = [
        ["quot", "order", *_nc(n, c), "--d", str(d)]
        for n in range(1, 6) for c in (1, 2) for d in (2, 3)
    ]
    cases["quot eval"] = [
        ["quot", "eval", *_nc(n, c), "--d", str(d), "--word", w]
        for n in range(1, 6) for c in (1, 2) for d in (0, 2, 3) for w in QUOT_WORDS
    ]
    cases["hom enumerate"] = [
        ["hom", "enumerate", *_nc(n, c), "--m", str(m)]
        for n in range(1, 5) for c in (1, 2) for m in range(1, 4)
    ]
    cases["hom phi"] = [
        ["hom", "phi", *_nc(n, c), "--eps", ",".join(map(str, bits)), *extra]
        for n in range(1, 7) for c in (1, 2) for bits in itertools.product((0, 1), repeat=c + 1)
        for extra in ([], ["--word", PHI_WORD])
    ]
    cases["hom enumerate budget"] = [
        ["hom", "enumerate", "--n", n, "--c", c, "--m", m, "--max-nodes", nodes]
        for n, c, m, nodes in BUDGET_CASES
    ]
    cases["oracle eq"] = [
        ["oracle", "eq", *_nc(n, c), "--depth", str(d), "--width", str(w),
         u.format(c=c), v.format(c=c)]
        for n, pairs in ORACLE_PAIRS.items() for c in (1, 2) for u, v in pairs
        for d, w in ORACLE_BUDGETS
    ]
    cases["nf"] = [["nf", *_nc(n, 2), "--word", w] for n in (3, 5) for w in WORDS]
    cases["eq"] = [["eq", *_nc(n, 1), u, v] for n in (3, 4) for u, v in PAIRS]
    return cases


def digest(argvs):
    h = hashlib.sha256()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(argv)
            h.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode())
    return h.hexdigest()


GOLDEN = {
    "graph stats": "adf38efc19ed9fdb5f90eb083436f70c97ba05cc861c73d1fa8b667a261d47eb",
    "graph dot": "11b72e4f008592108e5fe40ccb1605614735249231054e788af4dc15ea701d39",
    "vcd": "11008a8c0d57d5fe3d63ad57cec2f754874e2c049a7ad94148e6b0fcf0da2924",
    "howson": "961fd8425e994b5673caa086a760d0c3068812f5796ca45fa7deb70dd34f8576",
    "lerf-witness": "58d65f0f47c88fbcd762d68351d3d0e8670bb9031d3fd22f6a3a765084ce31b9",
    "center-witness": "41335587a664040e7f307845629d0f559e13d6ae37874830d515c49c1b530ce9",
    "quot order": "2e4f2b5416bca8dca3ae10f25daa52dde1a5781b02124341ff4a832f88661e12",
    "quot eval": "01f6a319cac6346348aa6a5936d41db2925aaf0182d571b9ff6ebd4f3ec1961b",
    "hom enumerate": "90d66f84a29e3984b115594e8e254b39c19f71044f5dd2b1f6443b9790556441",
    "hom enumerate budget": "ccdd454bd88eea912990f02ec48a9a4b6476f14aeafc047be67971fc098866fa",
    "hom phi": "72472ff63f0c9ebe8143c801a423884531c4ae6039f81593fb50b5a739419817",
    "oracle eq": "80f96c6843c37e72e233374500a1b9684ff8e242ce2138466e035eeba500b618",
    "nf": "a73c930b11999f143b8619cf6c975e27c9311f96bf9d404f812859946113aec0",
    "eq": "d639ae48b060ef6dcaf15a0731d94ffa3d63146d607c01110eeec492745aadac",
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_digest(command):
    assert digest(grid()[command]) == GOLDEN[command]


def test_golden_covers_the_grid():
    assert sorted(GOLDEN) == sorted(grid())


if __name__ == "__main__":
    for name, argvs in grid().items():
        print(f'    "{name}": "{digest(argvs)}",')
