"""The three benchmark workloads: inputs, timed steps and answer checks.

Inputs are token strings built here from the group presentation, not by
the package, so every expected answer is known by construction:

* an equal pair is ``u`` and a copy of ``u`` with conjugated defining
  relators inserted;
* an unequal pair additionally flips the sign of one crossing, which
  moves a colour exponent sum of the abelianisation by 2, so the two
  words differ whatever engine decides the word problem;
* the certificate commands are checked against closed forms
  (clique number floor(n/2), quotient order d^c * n!) and against
  witnesses re-checked here by colour-blind strand disjointness.

Each op is a list of steps; the runner times each step on its own and
corrects it by the host speed sampled during it.  Program functions are looked
up on the ``uvbraid`` package at call time, so the tracer's wrappers
are seen once installed.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from random import Random
from typing import Any, Callable

# --- words as token lists, built from the presentation -----------------


def alphabet(n: int, c: int) -> list[str]:
    toks = [f"r{i}" for i in range(1, n)]
    for i in range(1, n):
        for t in range(1, c + 1):
            toks += [f"s{i}.{t}", f"S{i}.{t}"]
    return toks


def inverse(toks: list[str]) -> list[str]:
    out = []
    for tok in reversed(toks):
        if tok[0] == "s":
            tok = "S" + tok[1:]
        elif tok[0] == "S":
            tok = "s" + tok[1:]
        out.append(tok)
    return out


@lru_cache(maxsize=None)
def relators(n: int, c: int) -> list[list[str]]:
    """Every defining relation lhs = rhs of UV(n, c) as the relator lhs * rhs^-1."""
    rels: list[tuple[list[str], list[str]]] = []
    for i in range(1, n - 1):
        rels.append(([f"r{i}", f"r{i + 1}", f"r{i}"], [f"r{i + 1}", f"r{i}", f"r{i + 1}"]))
    for i in range(1, n):
        rels.append(([f"r{i}", f"r{i}"], []))
        for j in range(i + 2, n):
            rels.append(([f"r{i}", f"r{j}"], [f"r{j}", f"r{i}"]))
            for t in range(1, c + 1):
                rels.append(([f"s{i}.{t}", f"r{j}"], [f"r{j}", f"s{i}.{t}"]))
                rels.append(([f"s{j}.{t}", f"r{i}"], [f"r{i}", f"s{j}.{t}"]))
                for l in range(1, c + 1):
                    rels.append(([f"s{i}.{t}", f"s{j}.{l}"], [f"s{j}.{l}", f"s{i}.{t}"]))
    for i in range(1, n - 1):
        for t in range(1, c + 1):
            rels.append((
                [f"r{i}", f"r{i + 1}", f"s{i}.{t}"],
                [f"s{i + 1}.{t}", f"r{i}", f"r{i + 1}"],
            ))
    return [lhs + inverse(rhs) for lhs, rhs in rels]


def random_letters(rng: Random, alpha: list[str], length: int) -> list[str]:
    return [rng.choice(alpha) for _ in range(length)]


def word_pair(rng: Random, n: int, c: int, length: int) -> tuple[str, str, bool]:
    """(u, v, equal): v is u with about length/20 conjugated relators
    inserted, and in half of the pairs one crossing sign flipped."""
    alpha = alphabet(n, c)
    rels = relators(n, c)
    u = random_letters(rng, alpha, length)
    v = list(u)
    for _ in range(max(1, round(length / 20))):
        x = random_letters(rng, alpha, rng.randint(0, 2))
        pos = rng.randint(0, len(v))
        v[pos:pos] = x + rng.choice(rels) + inverse(x)
    crossings = [k for k, tok in enumerate(v) if tok[0] in "sS"]
    equal = rng.random() < 0.5 or not crossings
    if not equal:
        k = rng.choice(crossings)
        v[k] = ("S" if v[k][0] == "s" else "s") + v[k][1:]
    return " ".join(u), " ".join(v), equal


# --- independent checks -------------------------------------------------


def abelian(text: str) -> dict[str, int]:
    """Exponent sum of the crossings of each colour: an invariant of the element."""
    sums: dict[str, int] = {}
    for tok in text.split():
        if tok[0] in "sS":
            colour = tok.partition(".")[2]
            sums[colour] = sums.get(colour, 0) + (1 if tok[0] == "s" else -1)
    return {colour: e for colour, e in sums.items() if e}

Vertex = tuple[int, int, int]


def _vertex(v: Any, n: int, c: int) -> Vertex | None:
    if not (isinstance(v, list) and len(v) == 3 and all(isinstance(x, int) for x in v)):
        return None
    i, j, t = v
    if not (1 <= i <= n and 1 <= j <= n and i != j and 1 <= t <= c):
        return None
    return (i, j, t)


def _commute(a: Vertex, b: Vertex) -> bool:
    """Kernel letters commute iff their strand pairs are disjoint (colour-blind)."""
    return not ({a[0], a[1]} & {b[0], b[1]})


def _perm_mul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a[y - 1] for y in b)


def _perm_inv(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for x, y in enumerate(a, start=1):
        inv[y - 1] = x
    return tuple(inv)


def hom_respects_relators(hom: dict, n: int, c: int) -> bool:
    """Evaluate every relator under the generator images of ``hom``."""
    m = hom["m"]
    ident = tuple(range(1, m + 1))
    images: dict[str, tuple[int, ...]] = {}
    for i in range(1, n):
        images[f"r{i}"] = tuple(hom["rho"][i - 1])
        for t in range(1, c + 1):
            img = tuple(hom["sigma"][i - 1][t - 1])
            images[f"s{i}.{t}"] = img
            images[f"S{i}.{t}"] = _perm_inv(img)
    for rel in relators(n, c):
        acc = ident
        for tok in rel:
            acc = _perm_mul(acc, images[tok])
        if acc != ident:
            return False
    return True


# --- workload definition ------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    graphs: tuple[tuple[int, int], ...]  # (n, c) pairs built during set-up
    rules: tuple[tuple[int, int], ...]  # (n, c) pairs whose rewrite rules are built
    make_op: Callable[[Random], Any]
    steps: Callable[[Any, Any], list[Callable[[], Any]]]
    check: Callable[[Any, Any, list[Any]], bool]
    keys: Callable[[Any], list[Any]]  # program inputs of one op, for the repeat share
    imports: tuple[str, ...] = ()  # package modules the ops use beyond ``uvbraid``


# wp-wide: one library word problem at n=20, c=3 with |u| = 600.

WIDE_N, WIDE_C, WIDE_LEN = 20, 3, 600


def _wide_make(rng: Random) -> tuple[str, str, bool]:
    return word_pair(rng, WIDE_N, WIDE_C, WIDE_LEN)


def _wide_steps(uv: Any, op: tuple[str, str, bool]) -> list[Callable[[], Any]]:
    p = uv.Params(WIDE_N, WIDE_C)
    u, v, _ = op
    return [lambda: uv.are_equal(uv.parse_word(u, p), uv.parse_word(v, p))]


def _wide_check(uv: Any, op: tuple[str, str, bool], results: list[Any]) -> bool:
    return results[0] is op[2]


# wp-narrow: a batch of small word problems plus the factorisation round trip.

NARROW_BATCH = 16
NARROW_PARAMS = tuple((n, c) for n in (4, 5, 6) for c in (1, 2))


def _narrow_make(rng: Random) -> list[tuple[int, int, str, str, bool]]:
    batch = []
    for _ in range(NARROW_BATCH):
        n, c = rng.choice(NARROW_PARAMS)
        batch.append((n, c) + word_pair(rng, n, c, rng.randint(10, 40)))
    return batch


def _narrow_query(uv: Any, n: int, c: int, u_text: str, v_text: str) -> tuple[bool, bool]:
    p = uv.Params(n, c)
    u = uv.parse_word(u_text, p)
    equal = uv.are_equal(u, uv.parse_word(v_text, p))
    nf = uv.to_normal_form(u)
    rebuilt = uv.expand_kword(nf.kword) * uv.rho_word(nf.perm, p)
    return equal, uv.are_equal(u, rebuilt)


def _narrow_steps(uv: Any, batch: list) -> list[Callable[[], Any]]:
    return [lambda q=q: _narrow_query(uv, *q[:4]) for q in batch]


def _narrow_check(uv: Any, batch: list, results: list[Any]) -> bool:
    return all(got == (q[4], True) for q, got in zip(batch, results, strict=True))


# certify: one round of in-process CLI calls over the certificate layers.

# One (n, c) for every round: (12, 1) costs 1.5x (10, 2) in clique search,
# and mixing the two made per-round cost bimodal.
CERTIFY_N, CERTIFY_C = 10, 2
QUOT = ("quot", "order", "--n", "5", "--c", "2", "--d", "2")
HOM = ("hom", "enumerate", "--n", "5", "--m", "3")
HOM_COUNT = 12  # homomorphisms UV(5, 1) -> S_3, each re-checked against every relator
ORACLE_N, ORACLE_LEN, ORACLE_CALLS = 4, 8, 4


def _certify_make(rng: Random) -> list[tuple[str, ...]]:
    nc = ("--n", str(CERTIFY_N), "--c", str(CERTIFY_C))
    calls = [(cmd,) + nc for cmd in ("vcd", "howson", "lerf-witness", "center-witness")]
    calls += [QUOT, HOM]
    for k in range(ORACLE_CALLS):
        u, v = oracle_pair(rng, equal=k % 2 == 0)
        calls.append(
            ("oracle", "eq", "--n", str(ORACLE_N), "--depth", "10", "--width", "300", u, v)
        )
    return calls


def oracle_pair(rng: Random, equal: bool) -> tuple[str, str]:
    """u of length <= ORACLE_LEN, and v either u with one defining relator
    inserted (equal) or u with one crossing sign flipped (unequal)."""
    alpha = alphabet(ORACLE_N, 1)
    while True:
        u = random_letters(rng, alpha, rng.randint(1, ORACLE_LEN))
        crossings = [k for k, tok in enumerate(u) if tok[0] in "sS"]
        if equal or crossings:
            break
    v = list(u)
    if equal:
        pos = rng.randint(0, len(v))
        v[pos:pos] = rng.choice(relators(ORACLE_N, 1))
    else:
        k = rng.choice(crossings)
        v[k] = ("S" if v[k][0] == "s" else "s") + v[k][1:]
    return " ".join(u), " ".join(v)


def _cli_call(uv: Any, argv: tuple[str, ...]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = uv.cli.run(list(argv))
    return rc, buf.getvalue()


def _certify_steps(uv: Any, calls: list) -> list[Callable[[], Any]]:
    return [lambda argv=argv: _cli_call(uv, argv) for argv in calls]


def _check_call(uv: Any, argv: tuple[str, ...], rc: int, out: str) -> bool:
    if rc != 0:
        return False
    doc = json.loads(out)
    cmd = argv[0]
    if cmd in ("quot", "hom", "oracle"):
        n = int(argv[argv.index("--n") + 1])
        c = int(argv[argv.index("--c") + 1]) if "--c" in argv else 1
    else:
        n, c = int(argv[2]), int(argv[4])
    if cmd == "vcd":
        return doc["clique_number"] == doc["vcd"] == n // 2
    if cmd == "howson":
        w = [_vertex(v, n, c) for v in doc["p3_witness"] or []]
        if doc["howson"] is not False or len(w) != 3 or None in w:
            return False
        return _commute(w[0], w[1]) and _commute(w[1], w[2]) and not _commute(w[0], w[2])
    if cmd == "lerf-witness":
        w = [_vertex(v, n, c) for v in doc["f2xf2_witness"] or []]
        if doc["lerf"] is not False or len(w) != 4 or None in w:
            return False
        x1, x2, y1, y2 = w
        return (
            not _commute(x1, x2)
            and not _commute(y1, y2)
            and all(_commute(x, y) for x in (x1, x2) for y in (y1, y2))
        )
    if cmd == "center-witness":
        return doc["dominating_vertices"] == [] and doc["commute"] is False
    if cmd == "quot":
        d = int(argv[argv.index("--d") + 1])
        order = d**c * factorial(n)
        return doc["order"] == order and doc["closure_size"] == order
    if cmd == "hom":
        return doc["count"] == HOM_COUNT and all(
            hom_respects_relators(h, n, c) for h in doc["homs"]
        )
    if doc["verdict"] == "unknown":
        return doc["path"] is None
    # A proof path must replay to the empty word, and only for an equal pair.
    p = uv.Params(n, c)
    u, v = uv.parse_word(argv[-2], p), uv.parse_word(argv[-1], p)
    path = tuple((label, pos) for label, pos in doc["path"])
    return (
        doc["verdict"] == "proven_equal"
        and abelian(argv[-2]) == abelian(argv[-1])
        and len(uv.replay(u, v, path)) == 0
    )


def _certify_check(uv: Any, calls: list, results: list[Any]) -> bool:
    return all(
        _check_call(uv, argv, rc, out) for argv, (rc, out) in zip(calls, results, strict=True)
    )


WORKLOADS: dict[str, Workload] = {
    "wp-wide": Workload(
        "wp-wide",
        graphs=((WIDE_N, WIDE_C),),
        rules=(),
        make_op=_wide_make,
        steps=_wide_steps,
        check=_wide_check,
        keys=lambda op: [op[:2]],
    ),
    "wp-narrow": Workload(
        "wp-narrow",
        graphs=NARROW_PARAMS,
        rules=(),
        make_op=_narrow_make,
        steps=_narrow_steps,
        check=_narrow_check,
        keys=lambda batch: [q[:4] for q in batch],
    ),
    "certify": Workload(
        "certify",
        graphs=((CERTIFY_N, CERTIFY_C),),
        rules=((ORACLE_N, 1),),
        make_op=_certify_make,
        steps=_certify_steps,
        check=_certify_check,
        keys=lambda calls: list(calls),
        imports=("uvbraid.cli",),
    ),
}
