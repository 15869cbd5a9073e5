"""The strand-stack kernel normal form against the piling engine it replaced.

``piling_normal_form`` is the earlier engine: one pile per generator, a
blocking marker pushed onto every non-commuting pile, and a read-out
that scans the piles in vertex order.  Its commutation table is built
pairwise here, independently of the bitmask graph in ``uvbraid.verify``.
"""

import random
from collections import deque
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from uvbraid import (
    KLetter,
    KWord,
    Params,
    Word,
    are_equal,
    normal_form,
    parse_word,
    random_word,
    relator_words,
)
from uvbraid.verify import build_graph
from uvbraid.words import _tables

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)


def vertices(params):
    n, c = params.n, params.c
    return [
        (i, j, t)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
        for t in range(1, c + 1)
    ]


@lru_cache(maxsize=None)
def piling_tables(params):
    verts = vertices(params)
    noncomm = tuple(
        tuple(b for b, v in enumerate(verts) if b != a and {u[0], u[1]} & {v[0], v[1]})
        for a, u in enumerate(verts)
    )
    return verts, {v: k for k, v in enumerate(verts)}, noncomm


def piling_normal_form(w):
    verts, index, noncomm = piling_tables(w.params)
    piles = [deque() for _ in verts]
    signs_remaining = 0
    for letter in w:
        vid = index[letter.vertex]
        pile = piles[vid]
        if pile and pile[-1] == -letter.sign:
            pile.pop()
            for other in noncomm[vid]:
                assert piles[other].pop() == 0
            signs_remaining -= 1
        else:
            pile.append(letter.sign)
            for other in noncomm[vid]:
                piles[other].append(0)
            signs_remaining += 1
    out = []
    while signs_remaining:
        for vid, pile in enumerate(piles):
            if pile and pile[0] != 0:
                i, j, t = verts[vid]
                out.append(KLetter(i, j, t, pile.popleft()))
                for other in noncomm[vid]:
                    assert piles[other].popleft() == 0
                signs_remaining -= 1
                break
    return KWord(w.params, tuple(out))


def random_small_alphabet_kword(rng):
    """n <= 8, c <= 3, letters drawn from at most five generators so that
    cancellations and commuting runs are frequent."""
    params = Params(rng.randint(2, 8), rng.randint(1, 3))
    alphabet = rng.sample(vertices(params), min(rng.randint(1, 5), len(vertices(params))))
    letters = tuple(
        KLetter(*rng.choice(alphabet), rng.choice((1, -1)))
        for _ in range(rng.randint(0, 24))
    )
    return KWord(params, letters)


def test_strand_stacks_match_piling_reference():
    rng = random.Random(20261018)
    for _ in range(20_000):
        w = random_small_alphabet_kword(rng)
        assert normal_form(w) == piling_normal_form(w), str(w)


@st.composite
def kernel_words(draw):
    params = Params(draw(st.integers(2, 8)), draw(st.integers(1, 3)))
    alphabet = draw(
        st.lists(st.sampled_from(vertices(params)), min_size=1, max_size=4, unique=True)
    )
    letters = draw(st.lists(st.tuples(st.sampled_from(alphabet), st.sampled_from((1, -1)))))
    return KWord(params, tuple(KLetter(i, j, t, sign) for (i, j, t), sign in letters))


@SETTINGS
@given(kernel_words())
def test_matches_piling_reference(w):
    assert normal_form(w) == piling_normal_form(w)


@SETTINGS
@given(kernel_words())
def test_normal_form_is_idempotent(w):
    nf = normal_form(w)
    assert normal_form(nf) == nf


@SETTINGS
@given(kernel_words())
def test_word_times_inverse_is_empty(w):
    assert normal_form(w * w.inverse()).letters == ()


def test_word_problem_never_builds_the_graph():
    p = Params(60, 2)
    rng = random.Random(60)
    relators = [w.letters for _, w in relator_words(Params(4, 2))]
    for _ in range(5):
        u = random_word(p, rng, 300)
        pos = rng.randrange(len(u) + 1)
        v = Word(p, u.letters[:pos] + rng.choice(relators) + u.letters[pos:])
        assert are_equal(u, v)
        assert not are_equal(u, v * parse_word("s59.2", p))
    assert build_graph.__wrapped__ not in _tables(p)
