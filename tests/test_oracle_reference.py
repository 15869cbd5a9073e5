"""The string-coded oracle search against the ``Letter`` search it replaced.

``reference_bfs_equal`` is the earlier breadth-first search: it runs on
tuples of ``Letter``s and free-reduces every successor from scratch with
``free_reduce_letters``.  It reads only ``rewrite_rules``, never the
coding, so equal ``ProofResult``s (verdict, path and explored) show that
the coded search visits the same nodes in the same order.
"""

import random
from typing import Iterator

import pytest

from uvbraid import Params, ProofResult, Word, bfs_equal, parse_word, random_word, rewrite_rules
from uvbraid.oracle import PROVEN_EQUAL, UNKNOWN, Rule, Step
from uvbraid.words import Letter, alphabet, free_reduce_letters, relator_words


def _successors(
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
    rules = rewrite_rules(u.params)
    start = free_reduce_letters(u.letters + v.inverse().letters)
    if not start:
        return ProofResult(PROVEN_EQUAL, (), 1)
    seen: set[tuple[Letter, ...]] = {start}
    parent: dict[tuple[Letter, ...], tuple[tuple[Letter, ...], str, int]] = {}
    frontier: list[tuple[Letter, ...]] = [start]
    for _ in range(max_depth):
        nxt: list[tuple[Letter, ...]] = []
        for node in frontier:
            for label, pos, out in _successors(node, rules):
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
