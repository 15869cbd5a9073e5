import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvbraid import (
    OrderCertificate,
    Params,
    QuotElem,
    Word,
    abelianize,
    parse_word,
    quotient_image,
    quotient_order,
    random_word,
    relator_words,
)
from uvbraid.quotients import (
    CLOSURE_LIMIT,
    ORDER_DIGIT_LIMIT,
    UNITS_STEP_LIMIT,
    _closure,
    _letter_image,
    quotient_identity,
)
from uvbraid.words import alphabet, rho, sigma

from perm_reference import compose


def qmul(a, b):
    """Reference group law: add the vectors (mod d), compose the permutations."""
    if a.modulus != b.modulus or len(a.vec) != len(b.vec):
        raise ValueError("cannot multiply elements of different quotients")
    vec = tuple(x + y for x, y in zip(a.vec, b.vec))
    if a.modulus:
        vec = tuple(x % a.modulus for x in vec)
    return QuotElem(vec, compose(a.perm, b.perm), a.modulus)


def qinv(a):
    vec = tuple(-x for x in a.vec)
    if a.modulus:
        vec = tuple(x % a.modulus for x in vec)
    return QuotElem(vec, a.perm.inverse(), a.modulus)


def reference_image(w, d):
    """Image of w as the ``qmul`` fold of its letters' images."""
    out = quotient_identity(w.params, d)
    for letter in w:
        out = qmul(out, _letter_image(letter, w.params, d))
    return out


def test_identity_element():
    e = quotient_identity(Params(3, 2), 5)
    assert e.vec == (0, 0)
    assert e.perm.is_identity
    assert e.modulus == 5


def test_modulus_validation():
    with pytest.raises(ValueError):
        quotient_identity(Params(3, 1), 1)
    with pytest.raises(ValueError):
        QuotElem((1,), quotient_identity(Params(2, 1), 2).perm, -2)
    # 0 means untruncated integer exponents
    quotient_identity(Params(3, 1), 0)


def test_qmul_checks_compatibility():
    p = Params(3, 1)
    a = quotient_image(parse_word("s1.1", p), 2)
    b = quotient_image(parse_word("s1.1", p), 3)
    with pytest.raises(ValueError):
        qmul(a, b)


def test_group_axioms_randomised():
    p = Params(4, 2)
    rng = random.Random(17)
    e = quotient_identity(p, 3)
    elems = [quotient_image(random_word(p, rng, 8), 3) for _ in range(30)]
    for x in elems:
        assert qmul(x, qinv(x)) == e
        assert qmul(qinv(x), x) == e
        assert qmul(x, e) == x
    for _ in range(30):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert qmul(qmul(x, y), z) == qmul(x, qmul(y, z))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_quotient_image_is_a_homomorphism(data):
    p = Params(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3)))
    d = data.draw(st.sampled_from([0, 2, 3, 5]))
    letters = st.lists(st.sampled_from(alphabet(p)), max_size=15) if p.n > 1 else st.just([])
    u = Word(p, tuple(data.draw(letters)))
    v = Word(p, tuple(data.draw(letters)))
    assert quotient_image(u * v, d) == qmul(quotient_image(u, d), quotient_image(v, d))


def test_relators_die_in_quotient():
    for n in (2, 4, 6):
        for c in (1, 3):
            p = Params(n, c)
            e = quotient_identity(p, 2)
            for label, w in relator_words(p):
                assert quotient_image(w, 2) == e, label


def test_generator_images():
    p = Params(3, 2)
    x = quotient_image(parse_word("s1.2", p), 3)
    assert x.vec == (0, 1)
    assert x.perm.images == (2, 1, 3)
    y = quotient_image(parse_word("r2", p), 3)
    assert y.vec == (0, 0)
    assert y.perm.images == (1, 3, 2)
    z = quotient_image(parse_word("S1.2 S1.2", p), 3)
    assert z.vec == (0, 1)  # -2 = 1 mod 3


def test_quotient_image_matches_letter_fold():
    rng = random.Random(29)
    for _ in range(3000):
        p = Params(rng.randint(1, 7), rng.randint(1, 3))
        w = random_word(p, rng, 20)
        d = rng.choice((0, 2, 3, 5))
        assert quotient_image(w, d) == reference_image(w, d)
    for d in (1, -2):
        with pytest.raises(ValueError):
            quotient_image(parse_word("s1.1", Params(2, 1)), d)


def test_untruncated_exponents_match_abelianisation():
    p = Params(4, 2)
    rng = random.Random(23)
    for _ in range(40):
        w = random_word(p, rng, 15)
        assert quotient_image(w, 0).vec == abelianize(w).sigma_exponents


def test_quotient_order_closure_certificate():
    cert = quotient_order(Params(5, 2), 2)
    assert cert == OrderCertificate(480, 120, "closure", 480)
    assert cert.order > cert.n_factorial


def reference_closure(params, d, letters):
    """Breadth-first closure of the letters' images under ``qmul``."""
    gens = [quotient_image(Word(params, (letter,)), d) for letter in letters]
    reached = [quotient_identity(params, d)]
    seen = set(reached)
    for elem in reached:
        for g in gens:
            prod = qmul(elem, g)
            if prod not in seen:
                seen.add(prod)
                reached.append(prod)
    return reached


# every small case, then the 2,160 elements at n = 6, c = 1, d = 3
@pytest.mark.parametrize(
    "d,c,n", [(d, c, n) for d in (2, 3) for c in (1, 2) for n in range(2, 6)] + [(3, 1, 6)]
)
def test_flat_closure_matches_qmul_closure(n, c, d):
    params = Params(n, c)
    vecs = list(itertools.product(range(d), repeat=c))
    flat = [(vecs[code], perm) for code, perm in _closure(params, d)]
    generators = [rho(i) for i in range(1, n)] + [sigma(1, t) for t in range(1, c + 1)]
    reference = [
        (elem.vec, elem.perm.images) for elem in reference_closure(params, d, generators)
    ]
    # the same breadth-first order over the same generating set, which
    # pins the sign of each s1.t at d >= 3
    assert flat == reference
    # and the same set as the closure over every letter
    assert set(flat) == {
        (elem.vec, elem.perm.images) for elem in reference_closure(params, d, alphabet(params))
    }
    assert len(flat) == d**c * math.factorial(n)


def test_quotient_order_units_certificate():
    # past CLOSURE_LIMIT the order is certified structurally: 4 * 7! just
    # passes it, while 3 * 7! is still closed
    assert 3 * 5040 <= CLOSURE_LIMIT < 4 * 5040
    cert = quotient_order(Params(7, 1), 4)
    assert (cert.order, cert.method, cert.closure_size) == (20_160, "units", None)
    cert = quotient_order(Params(7, 1), 3)
    assert (cert.order, cert.method, cert.closure_size) == (15_120, "closure", 15_120)


@pytest.mark.parametrize("n", [50, 500])
def test_units_certificate_checks_c_plus_two_images(monkeypatch, n):
    import uvbraid.quotients

    images = []

    def counted(w, d):
        images.append(quotient_image(w, d))
        return images[-1]

    monkeypatch.setattr(uvbraid.quotients, "quotient_image", counted)
    cert = quotient_order(Params(n, 3), 2)
    assert (cert.order, cert.method) == (8 * math.factorial(n), "units")
    assert len(images) == 3 + 2


@pytest.mark.parametrize(
    "n, c, d", [(3, 10**20, 2), (3, 10**8, 2), (10**9, 1, 2), (25_206, 1, 2), (2, 10**5, 10)]
)
def test_quotient_order_refuses_huge_orders_up_front(n, c, d):
    # c log10 d + log10 n! is counted in closed form, before d^c or n!
    with pytest.raises(OverflowError, match=f"more than ORDER_DIGIT_LIMIT = {ORDER_DIGIT_LIMIT}$"):
        quotient_order(Params(n, c), d)


def test_quotient_order_just_under_the_digit_limit():
    cert = quotient_order(Params(25_205, 1), 2)
    assert cert.order == 2 * cert.n_factorial == 2 * math.factorial(25_205)
    assert cert.method == "units"


def test_units_certificate_refuses_past_its_step_limit():
    # c + 2 images of c + n entries each: at n = 2 the bound is c of about 3,160
    assert (3_000 + 2) * (2 + 3_000) <= UNITS_STEP_LIMIT < (3_200 + 2) * (2 + 3_200)
    with pytest.raises(ValueError, match=f"more than UNITS_STEP_LIMIT = {UNITS_STEP_LIMIT}$"):
        quotient_order(Params(2, 3_200), 2)


def test_quotient_order_small_cases():
    assert quotient_order(Params(2, 1), 2).order == 4
    assert quotient_order(Params(2, 1), 3).order == 6
    assert quotient_order(Params(3, 1), 2).order == 12


def test_quotient_order_validation():
    with pytest.raises(ValueError):
        quotient_order(Params(3, 1), 1)
    with pytest.raises(ValueError):
        quotient_order(Params(1, 1), 2)
