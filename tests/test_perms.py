import itertools
import random

import pytest

from uvbraid import (
    Params,
    Perm,
    all_perms,
    identity,
    parse_word,
    rho_word,
    strand_permutation,
    virtual_permutation,
)
from uvbraid.perms import adjacent, transposition

from perm_reference import compose


def test_perm_validation():
    with pytest.raises(ValueError):
        Perm((1, 1, 3))
    with pytest.raises(ValueError):
        Perm((0, 1))
    with pytest.raises(ValueError):
        Perm(())


def test_call_and_inverse():
    p = Perm((2, 3, 1))
    assert [p(i) for i in (1, 2, 3)] == [2, 3, 1]
    assert compose(p, p.inverse()) == identity(3)
    assert compose(p.inverse(), p) == identity(3)


def test_compose_applies_right_argument_first():
    a = transposition(3, 1, 2)
    b = transposition(3, 2, 3)
    ab = compose(a, b)
    # (a . b)(x) = a(b(x)): 3 -> 2 -> 1
    assert ab(3) == 1
    assert ab.cycle_string() == "(1 2 3)"


def test_compose_associative():
    rng = random.Random(1)
    perms = list(all_perms(4))
    for _ in range(100):
        a, b, c = (rng.choice(perms) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_cycle_string():
    assert identity(4).cycle_string() == "()"
    assert transposition(4, 2, 4).cycle_string() == "(2 4)"
    assert Perm((2, 3, 1, 4)).cycle_string() == "(1 2 3)"


def test_all_perms_lex_order_and_count():
    perms = list(all_perms(3))
    assert len(perms) == 6
    assert perms[0] == identity(3)
    images = [p.images for p in perms]
    assert images == sorted(images)


def test_adjacent_transposition():
    assert adjacent(4, 2) == transposition(4, 2, 3)


def test_strand_vs_virtual_permutation():
    p = Params(3, 1)
    w = parse_word("r1 s2.1", p)
    # the crossing letter moves strands for the strand projection but
    # is invisible to the virtual projection
    assert strand_permutation(w) == compose(adjacent(3, 1), adjacent(3, 2))
    assert virtual_permutation(w) == adjacent(3, 1)


def test_projections_are_homomorphisms():
    p = Params(4, 2)
    rng = random.Random(5)
    from uvbraid import random_word

    for _ in range(60):
        u = random_word(p, rng, 10)
        v = random_word(p, rng, 10)
        assert strand_permutation(u * v) == compose(
            strand_permutation(u), strand_permutation(v)
        )
        assert virtual_permutation(u * v) == compose(
            virtual_permutation(u), virtual_permutation(v)
        )


def test_projections_kill_every_relator():
    from uvbraid import relator_words

    for n in (2, 3, 4, 5):
        params = Params(n, 2)
        for _, relator in relator_words(params):
            assert strand_permutation(relator).is_identity
            assert virtual_permutation(relator).is_identity


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rho_word_is_a_section(n):
    params = Params(n, 1)
    for p in all_perms(n):
        w = rho_word(p, params)
        assert virtual_permutation(w) == p
        assert all(letter.is_rho for letter in w.letters)


def test_rho_word_length_is_inversion_count():
    params = Params(4, 1)
    for p in all_perms(4):
        inversions = sum(
            1
            for i, j in itertools.combinations(range(1, 5), 2)
            if p(i) > p(j)
        )
        assert len(rho_word(p, params).letters) == inversions


# The fold every projection used before the in-place swap: one validated
# Perm per letter, multiplied on the right with ``compose``.
def compose_strand_permutation(w):
    p = identity(w.params.n)
    for letter in w:
        p = compose(p, adjacent(w.params.n, letter.i))
    return p


def compose_virtual_permutation(w):
    p = identity(w.params.n)
    for letter in w:
        if letter.is_rho:
            p = compose(p, adjacent(w.params.n, letter.i))
    return p


def compose_evaluate(h, w):
    out = identity(h.m)
    for letter in w:
        if letter.is_rho:
            img = h.image_rho[letter.i - 1]
        else:
            img = h.image_sigma[letter.i - 1][letter.t - 1]
            if letter.sign < 0:
                img = img.inverse()
        out = compose(out, img)
    return out


def test_swap_folds_agree_with_compose_fold():
    from uvbraid import HomSpec, random_word

    rng = random.Random(20261018)
    for _ in range(3000):
        params = Params(rng.randint(1, 7), rng.randint(1, 3))
        w = random_word(params, rng, 40)
        assert strand_permutation(w) == compose_strand_permutation(w)
        assert virtual_permutation(w) == compose_virtual_permutation(w)
        m = rng.randint(1, 5)
        perms = list(all_perms(m))
        h = HomSpec(
            m,
            tuple(rng.choice(perms) for _ in range(params.n - 1)),
            tuple(
                tuple(rng.choice(perms) for _ in range(params.c))
                for _ in range(params.n - 1)
            ),
        )
        assert h.evaluate(w) == compose_evaluate(h, w)
