"""Golden digest of the CLI: one sha256 per command over a fixed argv grid.

Each digest covers, for every argv in its grid, the exit code, stdout and
stderr of an in-process ``run`` with ``COLUMNS=80``.  A grid entry may be
an (argv, stdin text) pair instead, whose stdin text is hashed too.  A
refactor that must keep the output byte-identical keeps these digests; a
deliberate output change updates the one digest it touches and says why.

To print the current digests after such a change:

    PYTHONPATH=src python tests/test_cli_digest.py
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import random
import re
from unittest import mock

import pytest

from uvbraid import HomSpec, Params, hom_from_bits, verify_homspec
from uvbraid.cli import run

GRAPH_COMMANDS = (
    ("graph", "stats"),
    ("graph", "dot"),
    ("vcd",),
    ("howson",),
    ("lerf-witness",),
    ("center-witness",),
)
# Large shapes: ``stats`` prints closed forms at any size, and ``dot`` is
# refused at each of these shapes, so no huge output is hashed.
GRAPH_LIMIT_SHAPES = {
    "stats": ((101, 1), (3, 1667), (300, 3), (1000, 7)),
    "dot": ((101, 1), (300, 3), (3, 200_000)),
}
QUOT_WORDS = ("", "s1.1 r1 S1.1", "r1 s1.2 s1.2 s1.2", "s2.1 r3 s4.1 S2.1 r1")
WORDS = ("", "r1 s2.1", "r1 s2.1 r1 S3.2 r2 s1.1", "r3 s1.2 S1.2 r3 s2.1 r1 r2", "r4")
PAIRS = (("r1 s2.1 r1", "r2 s1.1 r2"), ("r1 s1.1", "s1.1 r1"), ("s1.1 S1.1", ""))
PHI_WORD = "r1 s1.1 r1 S1.1 s1.1"
# Images swapped into one generator of a ``hom phi`` map for ``hom check``:
# every permutation of 1, 2, 3 fixing the rest.  Each relation family is
# the first to fail for some swap; invol(r1) only at n = 2, as at n >= 3
# a virtual image in a braid relation with an involution is conjugate to it.
CHECK_SWAPS = ((1, 2, 3), (2, 1, 3), (1, 3, 2), (3, 2, 1), (2, 3, 1), (3, 1, 2))
# Documents ``hom check`` refuses: bad JSON, a missing key, not an object.
CHECK_MALFORMED = ("{nope", '{"m": 3}', "[1,2]")
BUDGET_CASES = (("6", "6", "3", "300"), ("5", "2", "4", "100"), ("5", "1", "5", "2000"))
# (n, c, m) with m = 4 or 5, then node budgets: (5, 1, 4) needs exactly 1,270
# nodes, and (5, 1, 5) needs 28,934, of which the first involution of each
# class and its subtree take 2,869: 3 nodes for r1 plus 2,866 in the subtrees.
M45_CASES = ((5, 1, 5), (6, 1, 5), (5, 2, 4), (4, 2, 4), (7, 1, 4), (6, 2, 4))
M45_BUDGETS = ((5, 1, 4, 1269), (5, 1, 4, 1270), (5, 1, 5, 10000))
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
# Argument errors, help and dispatch edge cases: help texts (wrapped at
# COLUMNS=80), unknown commands and modes, missing, malformed, abbreviated
# (--wo, the ambiguous --max) and repeated options, unknown options and
# extra positionals, options and help before the mode, ``graph``'s mode
# after its flags, ``--`` before eq's words, and an option verify-paper lacks.
N3 = ("--n", "3")
CLI_ERRORS = (
    (), ("-h",), ("vcd", "-h"), ("hom", "enumerate", "-h"),
    ("bogus",), ("hom",), ("quot", "-h"), ("hom", "bogus", *N3),
    ("nf", *N3), ("nf", "--word", "r1"), ("eq", *N3, "r1"), ("hom", "enumerate", "--m", "2"),
    ("nf", *N3, "--word"),
    ("nf", "--n", "x", "--word", "r1"), ("hom", "enumerate", *N3, "--m", "two"),
    ("oracle", "eq", *N3, "--depth", "1.5", "r1", "r1"),
    ("nf", *N3, "--wo", "r1"), ("hom", "enumerate", *N3, "--m", "2", "--max", "5"),
    ("nf", "--n=3", "--word=r1 r2"),
    ("nf", *N3, "--n", "4", "--word", "r3"),
    ("chi", *N3, "--t", "1", "--t", "2", "--word", "s1.2"),
    ("nf", *N3, "--word", "r1", "--bogus"), ("vcd", *N3, "-x", "1"),
    ("nf", *N3, "--word", "r1", "extra"), ("eq", *N3, "r1", "r1", "r2"),
    ("vcd", *N3, "extra", "more"), ("hom", "enumerate", *N3, "--m", "2", "enumerate"),
    ("hom", "--n", "3", "enumerate", "--m", "2"), ("oracle", "--n", "3", "eq", "r1", "r1"),
    ("graph", "--n", "3", "stats"), ("graph", "bogus"), ("graph", "--n", "3"),
    ("eq", *N3, "--", "r1", "r1"), ("eq", *N3, "r1", "--", "S1.1"),
    ("verify-paper", "--n", "3"),
    ("graph", "stats", "-h"), ("graph", "stats", "--n", "x"), ("hom", "-h", "enumerate"),
    ("quot", "--n", "5", "--c", "2", "order", "--d", "2"),
)
# Seeded random words and pairs for nf and eq: RANDOM_COUNT at n = 1..8,
# c = 1..3, then WIDE_COUNT of WIDE_LEN letters at WIDE_NC.
RANDOM_SEED, RANDOM_COUNT = 20261018, 200
WIDE_NC, WIDE_LEN, WIDE_COUNT = (20, 3), 600, 3


def _nc(n, c):
    return ["--n", str(n), "--c", str(c)]


def _tokens(n, c):
    toks = [f"r{i}" for i in range(1, n)]
    return toks + [f"{h}{i}.{t}" for i in range(1, n) for t in range(1, c + 1) for h in "sS"]


def _inverse(toks):
    flip = {"s": "S", "S": "s", "r": "r"}
    return [flip[tok[0]] + tok[1:] for tok in reversed(toks)]


def _relators(n, c):
    """Each defining relator of UV(n, c) as a token list: r_i r_i, the
    braid, far-commutation and slide relators."""
    rels = []
    for i in range(1, n):
        rels.append([f"r{i}", f"r{i}"])
        if i + 1 < n:
            rels.append([f"r{i}", f"r{i + 1}"] * 3)
        for j in range(i + 2, n):
            rels.append([f"r{i}", f"r{j}"] * 2)
            for t in range(1, c + 1):
                rels.append([f"s{i}.{t}", f"r{j}", f"S{i}.{t}", f"r{j}"])
                rels.append([f"s{j}.{t}", f"r{i}", f"S{j}.{t}", f"r{i}"])
                rels += [
                    [f"s{i}.{t}", f"s{j}.{l}", f"S{i}.{t}", f"S{j}.{l}"] for l in range(1, c + 1)
                ]
    for i in range(1, n - 1):
        for t in range(1, c + 1):
            rels.append([f"r{i}", f"r{i + 1}", f"s{i}.{t}", f"r{i + 1}", f"r{i}", f"S{i + 1}.{t}"])
    return rels


def random_words():
    """(n, c, word) for nf: random words at small n, then long ones at WIDE_NC."""
    rng = random.Random(RANDOM_SEED)
    out = []
    for _ in range(RANDOM_COUNT):
        n, c = rng.randint(1, 8), rng.randint(1, 3)
        alpha = _tokens(n, c)
        out.append((n, c, [rng.choice(alpha) for _ in range(rng.randint(0, 30) if alpha else 0)]))
    alpha = _tokens(*WIDE_NC)
    out += [(*WIDE_NC, [rng.choice(alpha) for _ in range(WIDE_LEN)]) for _ in range(WIDE_COUNT)]
    return [(n, c, " ".join(w)) for n, c, w in out]


def random_pairs():
    """(n, c, u, v) for eq: v is u with a conjugated relator inserted, and
    in every other pair one crossing of v has its sign flipped."""
    rng = random.Random(RANDOM_SEED + 1)
    shapes = [(rng.randint(2, 8), rng.randint(1, 3), rng.randint(0, 20)) for _ in range(RANDOM_COUNT)]
    shapes += [(*WIDE_NC, WIDE_LEN)] * WIDE_COUNT
    out = []
    for k, (n, c, length) in enumerate(shapes):
        alpha = _tokens(n, c)
        u = [rng.choice(alpha) for _ in range(length)]
        x = [rng.choice(alpha) for _ in range(rng.randint(0, 2))]
        pos = rng.randint(0, length)
        v = u[:pos] + x + rng.choice(_relators(n, c)) + _inverse(x) + u[pos:]
        crossings = [i for i, tok in enumerate(v) if tok[0] in "sS"]
        if k % 2 and crossings:
            i = rng.choice(crossings)
            v[i] = _inverse([v[i]])[0]
        out.append((n, c, " ".join(u), " ".join(v)))
    return out


def hom_check_documents():
    """(n, c, stdin text) for hom check: every ``hom phi`` map at n = 2..5,
    c = 1, 2 (at n = 2 extended to S_3, so that the swaps fit), then each
    with one generator image swapped for one of CHECK_SWAPS, then the
    malformed documents at n = 3, c = 1."""

    def document(n, c, m, images):
        rows = [images[k : k + c] for k in range(n - 1, len(images), c)]
        return n, c, json.dumps({"m": m, "rho": images[: n - 1], "sigma": rows})

    out = []
    for n in range(2, 6):
        for c in (1, 2):
            m = max(n, 3)
            for bits in itertools.product((0, 1), repeat=c + 1):
                h = hom_from_bits(bits, Params(n, c))
                images = [[*p.images, *range(n + 1, m + 1)] for p in h.generator_images()]
                out.append(document(n, c, m, images))
                for k in range(len(images)):
                    for swap in CHECK_SWAPS:
                        swapped = [*swap, *range(4, m + 1)]
                        out.append(document(n, c, m, images[:k] + [swapped] + images[k + 1 :]))
    return out + [(3, 1, doc) for doc in CHECK_MALFORMED]


@functools.cache
def grid():
    """Command name -> its argv list, built once per process."""
    cases = {
        " ".join(cmd): [[*cmd, *_nc(n, c)] for n in range(1, 9) for c in range(1, 4)]
        for cmd in GRAPH_COMMANDS
    }
    cases["graph limit"] = [
        ["graph", mode, *_nc(n, c)] for mode, shapes in GRAPH_LIMIT_SHAPES.items() for n, c in shapes
    ]
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
    cases["hom enumerate m4-5"] = [
        ["hom", "enumerate", *_nc(n, c), "--m", str(m)] for n, c, m in M45_CASES
    ] + [
        ["hom", "enumerate", *_nc(n, c), "--m", str(m), "--max-nodes", str(nodes)]
        for n, c, m, nodes in M45_BUDGETS
    ]
    cases["oracle eq"] = [
        ["oracle", "eq", *_nc(n, c), "--depth", str(d), "--width", str(w),
         u.format(c=c), v.format(c=c)]
        for n, pairs in ORACLE_PAIRS.items() for c in (1, 2) for u, v in pairs
        for d, w in ORACLE_BUDGETS
    ]
    cases["hom check"] = [
        (["hom", "check", *_nc(n, c), "--file", "-"], doc) for n, c, doc in hom_check_documents()
    ]
    cases["nf"] = [["nf", *_nc(n, 2), "--word", w] for n in (3, 5) for w in WORDS]
    for cmd in ("pure", "perm", "ab"):
        cases[cmd] = [[cmd, *_nc(n, 2), "--word", w] for n in (3, 5) for w in WORDS]
    cases["chi"] = [
        ["chi", *_nc(n, 2), "--t", str(t), "--word", w]
        for n in (3, 5) for t in (1, 2, 3) for w in WORDS
    ]
    cases["eq"] = [["eq", *_nc(n, 1), u, v] for n in (3, 4) for u, v in PAIRS]
    cases["cli errors"] = [list(argv) for argv in CLI_ERRORS]
    cases["nf random"] = [["nf", *_nc(n, c), "--word", w] for n, c, w in random_words()]
    cases["eq random"] = [["eq", *_nc(n, c), u, v] for n, c, u, v in random_pairs()]
    # u v^-1 over the eq pairs is trivial exactly when the pair is equal
    cases["trivial"] = (
        [["trivial", *_nc(n, 2), "--word", w] for n in (3, 5) for w in WORDS]
        + [
            ["trivial", *_nc(n, c), "--word", " ".join(rel)]
            for n in (3, 4) for c in (1, 2) for rel in _relators(n, c)
        ]
        + [
            ["trivial", *_nc(n, c), "--word", " ".join(u.split() + _inverse(v.split()))]
            for n, c, u, v in random_pairs()
        ]
    )
    return cases


def digest(entries):
    h = hashlib.sha256()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for entry in entries:
            argv, stdin = entry if isinstance(entry, tuple) else (entry, None)
            out, err = io.StringIO(), io.StringIO()
            with (
                mock.patch("sys.stdin", io.StringIO(stdin or "")),
                contextlib.redirect_stdout(out),
                contextlib.redirect_stderr(err),
            ):
                code = run(argv)
            record = [argv, code, out.getvalue(), err.getvalue()]
            if stdin is not None:
                record.insert(1, stdin)
            h.update(json.dumps(record).encode())
    return h.hexdigest()


GOLDEN = {
    "graph stats": "adf38efc19ed9fdb5f90eb083436f70c97ba05cc861c73d1fa8b667a261d47eb",
    "graph dot": "11b72e4f008592108e5fe40ccb1605614735249231054e788af4dc15ea701d39",
    "graph limit": "0a9405b5e8d99b82c9d1d357d04fb98b44917a6fc4e8a1ee56ec731585fb8b73",
    "vcd": "11008a8c0d57d5fe3d63ad57cec2f754874e2c049a7ad94148e6b0fcf0da2924",
    "howson": "961fd8425e994b5673caa086a760d0c3068812f5796ca45fa7deb70dd34f8576",
    "lerf-witness": "58d65f0f47c88fbcd762d68351d3d0e8670bb9031d3fd22f6a3a765084ce31b9",
    "center-witness": "41335587a664040e7f307845629d0f559e13d6ae37874830d515c49c1b530ce9",
    "quot order": "2e4f2b5416bca8dca3ae10f25daa52dde1a5781b02124341ff4a832f88661e12",
    "quot eval": "01f6a319cac6346348aa6a5936d41db2925aaf0182d571b9ff6ebd4f3ec1961b",
    "hom enumerate": "90d66f84a29e3984b115594e8e254b39c19f71044f5dd2b1f6443b9790556441",
    "hom enumerate m4-5": "7c21118c4d874981e052486af447fda922fbbee90a8643f9c742c3b635456e38",
    "hom enumerate budget": "ccdd454bd88eea912990f02ec48a9a4b6476f14aeafc047be67971fc098866fa",
    "hom phi": "72472ff63f0c9ebe8143c801a423884531c4ae6039f81593fb50b5a739419817",
    "hom check": "56481fb832f25732b0ed0a138538eaa36a61feae581799b57ab03f4f4644fb97",
    "oracle eq": "80f96c6843c37e72e233374500a1b9684ff8e242ce2138466e035eeba500b618",
    "nf": "a73c930b11999f143b8619cf6c975e27c9311f96bf9d404f812859946113aec0",
    "pure": "834cfb74e0cffe6a1dc0fd15f547d9d24595afc5b42ee67c7e69fd9fd7f88106",
    "perm": "ad04523f295fea157fee5a3a8c39f8a909a594ef50c6b5ea3d00ecdd13f24d5b",
    "ab": "888eb9a2d8393be8db64e735db551781d7a1389cb6637155ddaa6139e5558507",
    "chi": "64bd265db635fb4159ed18f76f802acc49f8c408e98c96614e82e3769c496e3c",
    "cli errors": "db41abfe03abb1e2b0b2fad88bfbff8e6b342b25f56e143ae3e87ea5d488b442",
    "eq": "d639ae48b060ef6dcaf15a0731d94ffa3d63146d607c01110eeec492745aadac",
    "nf random": "d3e50247d8176479f9b11d62c6a12acbf97b24c95bd7f12845b8b550f598f47a",
    "eq random": "4f48663184e36a23afe94d521bd16658df4154e699e7e9a00d0ea768307b60aa",
    "trivial": "f87b519a6fbcb12b9cdfebb6822620cd60a4b111592627c2898ebf48094c19c5",
}


def test_hom_check_documents_fail_every_relation_family():
    first_failures = set()
    for n, c, doc in hom_check_documents()[: -len(CHECK_MALFORMED)]:
        params = Params(n, c)
        ok, label = verify_homspec(HomSpec.from_json_dict(json.loads(doc), params), params)
        if not ok:
            first_failures.add(re.sub(r"[\d.]", "", label))
    assert first_failures == {
        "braid(r,r)", "comm(r,r)", "invol(r)", "comm(s,s)", "comm(s,r)", "slide(s)"
    }


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_digest(command):
    assert digest(grid()[command]) == GOLDEN[command]


def test_golden_covers_the_grid():
    assert sorted(GOLDEN) == sorted(grid())


if __name__ == "__main__":
    for name, argvs in grid().items():
        print(f'    "{name}": "{digest(argvs)}",')
