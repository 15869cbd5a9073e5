import random
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvbraid import (
    BudgetExceededError,
    HomSpec,
    Params,
    Perm,
    SearchBudget,
    Word,
    abelianize,
    color_parity,
    enumerate_homs,
    hom_from_bits,
    identity,
    is_admissible,
    parse_word,
    random_word,
    relator_words,
    verify_homspec,
)
from uvbraid.homs import check_bits, has_abelian_image
from uvbraid.perms import transposition
from uvbraid.words import alphabet

from perm_reference import compose


def test_hom_from_bits_images():
    p = Params(4, 2)
    h = hom_from_bits((1, 0, 1), p)
    assert h.m == 4
    assert h.image_rho[0] == transposition(4, 1, 2)
    assert h.image_sigma[0][0] == transposition(4, 1, 2)  # colour 1 switched on
    assert h.image_sigma[0][1] == identity(4)  # colour 2 switched off
    assert h.image_sigma[2][0] == transposition(4, 3, 4)


def test_switched_on_tuples_are_homomorphisms():
    for n in (3, 5):
        for c in (1, 2):
            p = Params(n, c)
            for k in range(2**c):
                bits = tuple((k >> b) & 1 for b in range(c)) + (1,)
                ok, failed = verify_homspec(hom_from_bits(bits, p), p)
                assert ok, failed


def test_virtual_off_with_colour_on_is_not_a_homomorphism():
    # the slide relation forces the virtual images to carry crossings
    # to the next strand pair; with the virtual letters killed the two
    # sides land on different transpositions
    p = Params(3, 1)
    ok, failed = verify_homspec(hom_from_bits((1, 0), p), p)
    assert not ok
    assert failed.startswith("slide(")


def test_is_admissible():
    p = Params(4, 1)
    assert is_admissible((0, 1), p)
    assert is_admissible((1, 1), p)
    assert not is_admissible((1, 0), p)
    assert not is_admissible((0, 0), p)


def test_is_admissible_needs_three_strands():
    with pytest.raises(ValueError):
        is_admissible((1, 1), Params(2, 1))


def test_check_bits():
    p = Params(3, 2)
    check_bits((0, 1, 1), p)
    with pytest.raises(ValueError):
        check_bits((0, 1), p)  # wrong length
    with pytest.raises(ValueError):
        check_bits((0, 2, 1), p)


def test_eval_bits_hom():
    p = Params(3, 1)
    h = hom_from_bits((1, 1), p)
    w = parse_word("r1 s2.1 r1", p)
    assert h.evaluate(w) == h.evaluate(parse_word("r2 s1.1 r2", p))
    # with every bit on, each letter maps to its adjacent transposition
    assert h.evaluate(parse_word("r1", p)) == transposition(3, 1, 2)


def test_homspec_json_round_trip():
    p = Params(3, 1)
    h = hom_from_bits((1, 1), p)
    data = h.to_json_dict()
    assert data["m"] == 3
    assert HomSpec.from_json_dict(data, p) == h


@pytest.mark.parametrize(
    "data",
    [
        [1, 2],
        "m",
        {"m": 3},
        {"rho": [], "sigma": []},
        {"m": "3", "rho": [[2, 1, 3], [1, 3, 2]], "sigma": [[[2, 1, 3]], [[1, 3, 2]]]},
        {"m": True, "rho": [[2, 1]], "sigma": [[[2, 1]]]},
        {"m": 3, "rho": 5, "sigma": []},
        {"m": 3, "rho": [[2, 1, 3], [1, 3, 2]], "sigma": [5, 6]},
        {"m": 3, "rho": [["2", "1", "3"], [1, 3, 2]], "sigma": [[[2, 1, 3]], [[1, 3, 2]]]},
    ],
)
def test_from_json_rejects_malformed_specs(data):
    with pytest.raises(ValueError):
        HomSpec.from_json_dict(data, Params(3, 1))


def test_from_json_rejects_bad_shapes():
    p = Params(3, 1)
    data = hom_from_bits((1, 1), p).to_json_dict()
    data["rho"] = data["rho"][:1]
    with pytest.raises(ValueError):
        HomSpec.from_json_dict(data, p)


def test_verify_homspec_spots_broken_images():
    p = Params(3, 1)
    # sending every generator to a 3-cycle breaks the involution relation
    cyc = Perm((2, 3, 1))
    h = HomSpec(3, (cyc, cyc), ((cyc,), (cyc,)))
    ok, failed = verify_homspec(h, p)
    assert not ok
    assert failed == "invol(r1)"


def test_abelianize_counts_signed_colour_exponents():
    p = Params(4, 3)
    w = parse_word("s1.2 r1 s3.2 S2.1 r3 s1.3", p)
    img = abelianize(w)
    assert img.sigma_exponents == (-1, 2, 1)
    assert img.rho_parity == 0
    assert abelianize(parse_word("r1 r2 r1", p)).rho_parity == 1


def test_abelianize_is_additive():
    p = Params(4, 2)
    rng = random.Random(9)
    for _ in range(50):
        u = random_word(p, rng, 10)
        v = random_word(p, rng, 10)
        uv = abelianize(u * v)
        au, av = abelianize(u), abelianize(v)
        assert uv.sigma_exponents == tuple(
            x + y for x, y in zip(au.sigma_exponents, av.sigma_exponents)
        )
        assert uv.rho_parity == (au.rho_parity + av.rho_parity) % 2


def test_abelianize_kills_relators():
    p = Params(5, 2)
    for label, w in relator_words(p):
        img = abelianize(w)
        assert img.sigma_exponents == (0, 0), label
        assert img.rho_parity == 0, label


def test_color_parity():
    p = Params(3, 2)
    w = parse_word("s1.1 r1", p)
    assert color_parity(1, w) == 1
    assert color_parity(2, w) == 0
    assert color_parity(1, parse_word("s1.1 S2.1", p)) == 0
    with pytest.raises(ValueError):
        color_parity(3, w)
    with pytest.raises(ValueError):
        color_parity(0, w)


def test_enumerate_homs_to_s2():
    # factors through the abelianisation: independent sign choices for
    # the sigma class and the rho class
    found = enumerate_homs(Params(3, 1), 2, SearchBudget())
    assert len(found) == 4
    for h in found:
        assert verify_homspec(h, Params(3, 1))[0]
        assert has_abelian_image(h)


def test_enumerate_homs_deterministic_order():
    a = enumerate_homs(Params(4, 1), 2, SearchBudget())
    b = enumerate_homs(Params(4, 1), 2, SearchBudget())
    assert a == b


def test_enumerate_homs_includes_bit_family():
    p = Params(3, 1)
    found = enumerate_homs(p, 3, SearchBudget())
    for bits in ((0, 1), (1, 1)):
        assert hom_from_bits(bits, p) in found


def test_trivial_rho_image_forces_abelian_image():
    p = Params(3, 1)
    for h in enumerate_homs(p, 3, SearchBudget()):
        if any(img.is_identity for img in h.image_rho):
            assert has_abelian_image(h)


def test_enumerate_homs_budget():
    with pytest.raises(BudgetExceededError) as err:
        enumerate_homs(Params(5, 1), 3, SearchBudget(max_nodes=5, max_seconds=60.0))
    assert isinstance(err.value.partial, list)


@pytest.mark.parametrize("n", [1, 3])
def test_enumerate_homs_refuses_a_negative_node_budget(monkeypatch, n):
    import uvbraid.homs

    def no_set_up(*args):
        raise AssertionError("set-up ran before the budget was checked")

    monkeypatch.setattr(uvbraid.homs, "all_perms", no_set_up)
    monkeypatch.setattr(uvbraid.homs, "relation_codes", no_set_up)
    with pytest.raises(ValueError, match="node budget must be >= 0, got max_nodes=-5"):
        enumerate_homs(Params(n, 1), 1, SearchBudget(max_nodes=-5))


def test_single_strand_has_one_hom():
    found = enumerate_homs(Params(1, 1), 3, SearchBudget())
    assert len(found) == 1
    assert found[0].image_rho == ()


def test_enumerate_homs_budget_covers_building_the_target(monkeypatch):
    import uvbraid.homs

    produced = 0
    real_all_perms = uvbraid.homs.all_perms

    def counting_all_perms(m):
        nonlocal produced
        for p in real_all_perms(m):
            produced += 1
            yield p

    monkeypatch.setattr(uvbraid.homs, "all_perms", counting_all_perms)
    max_nodes = 10
    with pytest.raises(BudgetExceededError) as err:
        enumerate_homs(Params(3, 1), 8, SearchBudget(max_nodes=max_nodes, max_seconds=60.0))
    assert produced <= max_nodes
    assert all(verify_homspec(h, Params(3, 1))[0] for h in err.value.partial)
    # within the node budget, an exhausted time budget stops building S_8
    produced = 0
    with pytest.raises(BudgetExceededError, match="time budget"):
        enumerate_homs(Params(3, 1), 8, SearchBudget(max_seconds=-1.0))
    assert produced <= 256


def test_enumerate_homs_checks_time_before_each_full_assignment(monkeypatch):
    import uvbraid.homs

    # a fake clock that only advances while a full assignment is kept
    now = 0.0
    calls = 0
    real_homspec = uvbraid.homs._homspec

    def slow_homspec(m, perms, n):
        nonlocal now, calls
        calls += 1
        now += 1.0
        return real_homspec(m, perms, n)

    monkeypatch.setattr(uvbraid.homs, "time", SimpleNamespace(monotonic=lambda: now))
    monkeypatch.setattr(uvbraid.homs, "_homspec", slow_homspec)
    p = Params(6, 6)
    with pytest.raises(BudgetExceededError, match="time budget") as err:
        enumerate_homs(p, 3, SearchBudget(max_seconds=2.5))
    assert calls <= 3
    assert err.value.partial
    assert all(verify_homspec(h, p)[0] for h in err.value.partial)


def test_enumerate_homs_budget_covers_the_relation_table(monkeypatch):
    import uvbraid.homs

    # a fake clock that only advances while the relation table is built
    now = 0.0
    products = 0
    real_table, real_product = uvbraid.homs.relation_codes, uvbraid.homs._product

    def slow_table(params):
        nonlocal now
        now += 1.0
        return real_table(params)

    def counting_product(*args):
        nonlocal products
        products += 1
        return real_product(*args)

    monkeypatch.setattr(uvbraid.homs, "time", SimpleNamespace(monotonic=lambda: now))
    monkeypatch.setattr(uvbraid.homs, "relation_codes", slow_table)
    monkeypatch.setattr(uvbraid.homs, "_product", counting_product)
    with pytest.raises(BudgetExceededError, match="time budget") as err:
        enumerate_homs(Params(5, 1), 3, SearchBudget(max_seconds=0.5))
    assert err.value.partial == []
    # the second node tried (r2) checks braid(r1, r2), so no relation
    # evaluated means the search never got past its first node
    assert products == 0


def test_enumerate_homs_refuses_a_nan_time_budget():
    # a NaN limit would compare false forever and silently switch the clock off
    with pytest.raises(ValueError, match="nan"):
        enumerate_homs(Params(3, 1), 3, SearchBudget(max_seconds=float("nan")))
    assert len(enumerate_homs(Params(3, 1), 3, SearchBudget(max_seconds=float("inf")))) == 60


def test_homs_never_build_the_word_relations(monkeypatch):
    import uvbraid.homs
    import uvbraid.words

    def refuse(params):
        raise AssertionError("the homomorphism path built the Word relations")

    # homs reads the code table only, and holds no name of the Word builder
    assert not hasattr(uvbraid.homs, "defining_relations")
    monkeypatch.setattr(uvbraid.words, "defining_relations", refuse)
    p = Params(5, 1)
    uvbraid.words._tables(p).clear()
    found = enumerate_homs(p, 3)
    assert len(found) == 12
    assert all(verify_homspec(h, p) == (True, None) for h in found)
    assert verify_homspec(hom_from_bits((1, 0), p), p) == (False, "slide(s1.1)")


def test_enumerate_homs_never_calls_verify_homspec(monkeypatch):
    import uvbraid.homs

    # the search checks each relation once on the way down, so nothing is re-verified
    def refuse(h, params):
        raise AssertionError("enumerate_homs re-verified a full assignment")

    monkeypatch.setattr(uvbraid.homs, "verify_homspec", refuse)
    assert len(enumerate_homs(Params(5, 1), 3)) == 12
    assert len(enumerate_homs(Params(4, 2), 3)) == 54


@lru_cache(maxsize=None)
def _enumerated(n, c, m):
    return enumerate_homs(Params(n, c), m)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_evaluate_is_a_homomorphism_for_enumerated_homs(data):
    # multiplicative on concatenation, and inverse words map to inverses
    n, c, m = data.draw(st.sampled_from([(3, 1, 3), (4, 2, 3), (5, 1, 4), (5, 1, 5)]))
    p = Params(n, c)
    h = data.draw(st.sampled_from(_enumerated(n, c, m)))
    letters = st.lists(st.sampled_from(alphabet(p)), max_size=12)
    u = Word(p, tuple(data.draw(letters)))
    v = Word(p, tuple(data.draw(letters)))
    assert h.evaluate(u * v) == compose(h.evaluate(u), h.evaluate(v))
    assert h.evaluate(u * u.inverse()).is_identity
