"""The string-coded oracle search against the ``Letter`` search it replaced.

``reference_rules`` is the table of every directed rewrite that the
search once kept, enumerated from the presentation on its own, in the
order the search uses.  ``reference_bfs_equal`` is the earlier
breadth-first search over that table: it runs on tuples of ``Letter``s
and free-reduces every successor from scratch with
``free_reduce_letters``.  It never reads the coding, so equal
successor sequences and equal ``ProofResult``s (verdict, path and
explored) show that the coded search, which reads its rewrites off each
node, visits the same nodes in the same order; and every label of the
table must name the same rewrite to ``replay``.
"""

import random
from typing import Iterator

import pytest

from uvbraid import Params, ProofResult, Word, bfs_equal, parse_word, random_word
from uvbraid.oracle import PROVEN_EQUAL, UNKNOWN, Rule, Step, _coding, _rule, _successors
from uvbraid.words import (
    Letter,
    alphabet,
    defining_relations,
    free_reduce_letters,
    relator_words,
    rho,
    sigma,
)


def _reference_rules(params: Params) -> Iterator[tuple[str, Rule]]:
    n, c = params.n, params.c

    def both_ways(label: str, lhs: tuple[Letter, ...], rhs: tuple[Letter, ...]) -> Iterator:
        yield f"{label}:fwd", (lhs, rhs)
        yield f"{label}:rev", (rhs, lhs)

    def commute(x: Letter, y: Letter) -> Iterator:
        yield f"comm({x.token()},{y.token()})", ((x, y), (y, x))
        yield f"comm({y.token()},{x.token()})", ((y, x), (x, y))

    for i in range(1, n - 1):
        yield from both_ways(
            f"braid(r{i})",
            (rho(i), rho(i + 1), rho(i)),
            (rho(i + 1), rho(i), rho(i + 1)),
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            yield from commute(rho(i), rho(j))
            for t in range(1, c + 1):
                for s_i in (1, -1):
                    yield from commute(sigma(i, t, s_i), rho(j))
                    yield from commute(sigma(j, t, s_i), rho(i))
                    for l in range(1, c + 1):
                        for s_j in (1, -1):
                            yield from commute(sigma(i, t, s_i), sigma(j, l, s_j))
    for i in range(1, n - 1):
        for t in range(1, c + 1):
            yield from both_ways(
                f"slide(s{i}.{t})",
                (rho(i), rho(i + 1), sigma(i, t, 1)),
                (sigma(i + 1, t, 1), rho(i), rho(i + 1)),
            )
            yield from both_ways(
                f"slide(S{i}.{t})",
                (sigma(i, t, -1), rho(i + 1), rho(i)),
                (rho(i + 1), rho(i), sigma(i + 1, t, -1)),
            )
    for label, relator in relator_words(params):
        letters = free_reduce_letters(relator.letters)
        if not letters:
            continue  # the involutions are already absorbed by free reduction
        yield f"rel({label}):ins", ((), letters)
        yield f"rel({label}):del", (letters, ())
        reversed_letters = free_reduce_letters(relator.inverse().letters)
        if reversed_letters != letters:
            yield f"rel({label}):rins", ((), reversed_letters)
            yield f"rel({label}):rdel", (reversed_letters, ())


def reference_rules(params: Params) -> dict[str, Rule]:
    """Every directed rewrite of UV(n, c) keyed by its label, in the search's order."""
    return dict(_reference_rules(params))


def encode(params: Params, letters: tuple[Letter, ...]) -> str:
    """A word as the search's node: letter x of ``alphabet`` as ``chr(x)``."""
    return "".join([chr(alphabet(params).index(letter)) for letter in letters])


def reference_successors(
    letters: tuple[Letter, ...], rules: dict[str, Rule]
) -> Iterator[tuple[str, int, tuple[Letter, ...]]]:
    for label, (pattern, replacement) in rules.items():
        if pattern:
            span = len(pattern)
            for pos in range(len(letters) - span + 1):
                if letters[pos : pos + span] == pattern:
                    out = free_reduce_letters(
                        letters[:pos] + replacement + letters[pos + span :]
                    )
                    yield label, pos, out
        else:
            for pos in range(len(letters) + 1):
                out = free_reduce_letters(letters[:pos] + replacement + letters[pos:])
                yield label, pos, out


def reference_bfs_equal(
    u: Word, v: Word, *, max_depth: int = 8, max_frontier: int = 200_000
) -> ProofResult:
    """Three-valued equality: PROVEN_EQUAL with a replayable path, or UNKNOWN."""
    if u.params != v.params:
        raise ValueError(f"cannot compare words with parameters {u.params} and {v.params}")
    rules = reference_rules(u.params)
    start = free_reduce_letters(u.letters + v.inverse().letters)
    if not start:
        return ProofResult(PROVEN_EQUAL, (), 1)
    seen: set[tuple[Letter, ...]] = {start}
    parent: dict[tuple[Letter, ...], tuple[tuple[Letter, ...], str, int]] = {}
    frontier: list[tuple[Letter, ...]] = [start]
    for _ in range(max_depth):
        nxt: list[tuple[Letter, ...]] = []
        for node in frontier:
            for label, pos, out in reference_successors(node, rules):
                if out in seen:
                    continue
                seen.add(out)
                parent[out] = (node, label, pos)
                if not out:
                    path: list[Step] = []
                    cur: tuple[Letter, ...] = out
                    while cur != start:
                        prev, lab, p = parent[cur]
                        path.append((lab, p))
                        cur = prev
                    path.reverse()
                    return ProofResult(PROVEN_EQUAL, tuple(path), len(seen))
                nxt.append(out)
                if len(nxt) > max_frontier:
                    return ProofResult(UNKNOWN, None, len(seen))
        if not nxt:
            break
        frontier = nxt
    return ProofResult(UNKNOWN, None, len(seen))


def relator_pair(params: Params, rng: random.Random, equal: bool) -> tuple[Word, Word]:
    """u of 1..6 random letters and v either u with one defining relator
    inserted (equal) or u with one crossing sign flipped (unequal)."""
    relators = [w.letters for _, w in relator_words(params)]
    while True:
        u = random_word(params, rng, 6).letters
        crossings = [k for k, letter in enumerate(u) if not letter.is_rho]
        if u and (equal or crossings):
            break
    if equal:
        pos = rng.randint(0, len(u))
        v = u[:pos] + rng.choice(relators) + u[pos:]
    else:
        k = rng.choice(crossings)
        v = u[:k] + (u[k].inverse(),) + u[k + 1 :]
    return Word(params, u), Word(params, v)


def assert_same(u: Word, v: Word, **budget) -> ProofResult:
    res = bfs_equal(u, v, **budget)
    assert res == reference_bfs_equal(u, v, **budget), (str(u), str(v), budget)
    return res


def test_coherence_pairs_match_the_reference():
    # the ``oracle-coherence`` pattern: random words of length <= 8 at
    # n = 4, c = 1 with depth 10 and width 300
    params = Params(4, 1)
    rng = random.Random(41)
    verdicts = set()
    for _ in range(150):
        u = random_word(params, rng, 8)
        v = random_word(params, rng, 8)
        verdicts.add(assert_same(u, v, max_depth=10, max_frontier=300).verdict)
    assert verdicts == {PROVEN_EQUAL, UNKNOWN}


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("c", [1, 2])
def test_relator_and_flipped_pairs_match_the_reference(n, c):
    params = Params(n, c)
    rng = random.Random(100 * n + c)
    proven = 0
    for k in range(17):
        u, v = relator_pair(params, rng, equal=k % 2 == 0)
        proven += assert_same(u, v, max_depth=4, max_frontier=200).proven
    assert proven >= 1


@pytest.mark.parametrize(
    "budget",
    [
        {"max_depth": 0, "max_frontier": 300},
        {"max_depth": 6, "max_frontier": 0},
        {"max_depth": 6, "max_frontier": 1},
        {"max_depth": 6, "max_frontier": 5},
        {"max_depth": 3, "max_frontier": 40},
    ],
)
def test_small_budgets_stop_where_the_reference_stops(budget):
    params = Params(4, 2)
    rng = random.Random(43)
    for k in range(6):
        assert_same(*relator_pair(params, rng, equal=k % 2 == 0), **budget)


# UV(3, 64) has 2 * 129 = 258 letters, so s2.64 and S2.64 are coded as
# chr(256) and chr(257) and their nodes need more than one byte per
# character.  The pairs below are three slide instances, a flipped
# crossing and an inserted braid relator, then seeded relator pairs.  At n = 2
# there is no rule, as free reduction absorbs the one relator r1 r1, so n = 3
# is the cheapest such alphabet on which the search does anything.
WIDE_PAIRS = (
    ("r1 r2 s1.64", "s2.64 r1 r2"),
    ("r1 s2.64 r1", "r2 s1.64 r2"),
    ("S1.64 r2 r1", "r2 r1 S2.64"),
    ("s2.64 s1.63", "S2.64 s1.63"),
    ("s1.64 S2.64", "s1.64 r1 r2 r1 r2 r1 r2 S2.64"),
)


def test_an_alphabet_past_one_byte_per_letter_matches_the_reference():
    params = Params(3, 64)
    assert len(alphabet(params)) == 258
    rng = random.Random(47)
    pairs = [(parse_word(u, params), parse_word(v, params)) for u, v in WIDE_PAIRS]
    pairs += [relator_pair(params, rng, equal=k % 2 == 0) for k in range(6)]
    verdicts = [assert_same(u, v, max_depth=3, max_frontier=2000).verdict for u, v in pairs]
    assert verdicts[:5] == [PROVEN_EQUAL] * 3 + [UNKNOWN, PROVEN_EQUAL]


def assert_same_successors(params: Params, letters: tuple[Letter, ...]) -> None:
    """The coded successors of a node, labels and positions included, are
    the reference's in the same order."""
    coding = _coding(params)
    decode = alphabet(params)
    got = [
        (label, pos, tuple(decode[ord(x)] for x in out))
        for label, pos, out in _successors(encode(params, letters), coding, True)
    ]
    assert got == list(reference_successors(letters, reference_rules(params))), str(letters)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("c", [1, 2, 3])
def test_successor_sequences_match_the_reference(n, c):
    # free-reduced words of up to 8 random letters with one planted
    # braid, commutation or slide pattern, or one relator
    params = Params(n, c)
    rng = random.Random(10 * n + c)
    patterns = [pattern for pattern, _ in reference_rules(params).values() if pattern]
    relators = [w.letters for _, w in relator_words(params)]
    for k in range(12):
        u = random_word(params, rng, 8).letters
        planted = rng.choice(patterns if k % 2 and patterns else relators)
        pos = rng.randint(0, len(u))
        assert_same_successors(params, free_reduce_letters(u[:pos] + planted + u[pos:]))


def test_successor_sequences_past_one_byte_per_letter_match_the_reference():
    params = Params(3, 64)
    rng = random.Random(53)
    nodes = [parse_word(f"{u} {v}", params).letters for u, v in WIDE_PAIRS]
    nodes += [random_word(params, rng, 8).letters for _ in range(4)]
    for letters in nodes:
        assert_same_successors(params, free_reduce_letters(letters))


@pytest.mark.parametrize("n", range(1, 9))
def test_every_reference_label_names_its_rule_to_replay(n):
    for c in (1, 2, 3):
        params = Params(n, c)
        relations = {label: (lhs, rhs) for label, lhs, rhs in defining_relations(params)}
        for label, rule in reference_rules(params).items():
            assert _rule(label, params, relations) == rule, label
