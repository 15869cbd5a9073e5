"""Homomorphisms as rows: ``enumerate_rows`` against ``enumerate_homs``,
the row readers, and the budget of the row search."""

from itertools import permutations
from math import factorial
from operator import itemgetter
from types import SimpleNamespace

import pytest

import uvbraid.homs
from uvbraid import (
    BudgetExceededError,
    HomSpec,
    Params,
    Perm,
    SearchBudget,
    enumerate_homs,
    hom_from_bits,
    verify,
)
from uvbraid.homs import ROW_DEGREE_LIMIT, enumerate_rows, has_abelian_image, row_is_abelian


def row_of(h: HomSpec) -> bytes:
    return bytes(x - 1 for p in h.generator_images() for x in p.images)


SHAPES = [(1, 2, 3), (2, 1, 3), (3, 1, 3), (4, 2, 3), (5, 1, 4), (3, 2, 4)]


@pytest.mark.parametrize("n,c,m", SHAPES)
def test_rows_are_the_homspecs_packed_in_order(n, c, m):
    p = Params(n, c)
    rows = enumerate_rows(p, m)
    found = enumerate_homs(p, m)
    assert rows == [row_of(h) for h in found]
    assert rows == sorted(rows)
    assert {len(row) for row in rows} == {(n - 1) * (c + 1) * m}


@pytest.mark.parametrize("n,c,m", SHAPES)
def test_row_readers_match_the_homspec_readers(n, c, m):
    for h in enumerate_homs(Params(n, c), m):
        assert row_is_abelian(row_of(h), m) == has_abelian_image(h)


def test_image_order_reads_rows():
    # the bit family with everything on maps onto S_n; the virtual letters
    # alone generate it too; all off is the trivial map
    for n in (3, 4, 5):
        p = Params(n, 2)
        assert verify._image_order(row_of(hom_from_bits((1, 1, 1), p)), n) == factorial(n)
        assert verify._image_order(row_of(hom_from_bits((0, 0, 1), p)), n) == factorial(n)
        assert verify._image_order(row_of(hom_from_bits((0, 0, 0), p)), n) == 1


def test_rows_refuse_a_degree_past_one_byte():
    with pytest.raises(ValueError, match="m must be at most 256, got m=257"):
        enumerate_rows(Params(1, 1), ROW_DEGREE_LIMIT + 1)
    with pytest.raises(ValueError, match="got m=257"):
        enumerate_homs(Params(3, 1), ROW_DEGREE_LIMIT + 1)
    assert enumerate_rows(Params(1, 1), ROW_DEGREE_LIMIT) == [b""]


@pytest.mark.parametrize("max_nodes", [0, 1, 50, 500, 5000])
def test_node_budget_bounds_the_rows_held(max_nodes):
    # at n = 3 almost every node completes a homomorphism, so the rows held
    # grow with the budget, but never past it
    p = Params(3, 1)
    with pytest.raises(BudgetExceededError) as err:
        enumerate_rows(p, 6, SearchBudget(max_nodes=max_nodes))
    rows = err.value.partial
    assert len(rows) <= max_nodes
    assert all(len(row) == 4 * 6 for row in rows)
    with pytest.raises(BudgetExceededError) as homs_err:
        enumerate_homs(p, 6, SearchBudget(max_nodes=max_nodes))
    # enumerate_homs carries the same homomorphisms, sorted and unpacked
    assert [row_of(h) for h in homs_err.value.partial] == sorted(rows)


def test_row_search_checks_time_before_each_row(monkeypatch):
    # a fake clock that only advances while a row is gathered, from a full
    # assignment or by conjugation
    now = 0.0
    rows_built = 0

    def slow_itemgetter(*items):
        getter = itemgetter(*items)

        def gather(source):
            nonlocal now, rows_built
            rows_built += 1
            now += 1.0
            return getter(source)

        return gather

    monkeypatch.setattr(uvbraid.homs, "time", SimpleNamespace(monotonic=lambda: now))
    monkeypatch.setattr(uvbraid.homs, "itemgetter", slow_itemgetter)
    p = Params(6, 6)
    with pytest.raises(BudgetExceededError, match="time budget") as err:
        enumerate_rows(p, 3, SearchBudget(max_seconds=2.5))
    assert rows_built <= 3
    assert 1 <= len(err.value.partial) <= 3


def test_small_target_rigidity_builds_no_homspec(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("the claim built a HomSpec")

    perms = 0
    real_perm_init = Perm.__init__

    def counting_perm_init(self, *args, **kwargs):
        nonlocal perms
        perms += 1
        real_perm_init(self, *args, **kwargs)

    monkeypatch.setattr(HomSpec, "__init__", refuse)
    monkeypatch.setattr(Perm, "__init__", counting_perm_init)
    result = dict(verify.CHECKS)["small-target-rigidity"](verify.DEFAULT_SEED)
    assert result.ok, result.details
    # the search and the claim read byte images: no Perm per element of
    # each target S_2 .. S_5, and none per homomorphism
    assert perms == 0


def tuple_row_images(row: bytes, m: int) -> list[tuple[int, ...]]:
    return [tuple(image) for image in uvbraid.homs.row_images(row, m)]


def tuple_image_order(row: bytes, m: int) -> int:
    """The closure of a row's images under right multiplication, by the
    tuple product of the ``HomSpec`` paths."""
    gens = set(tuple_row_images(row, m))
    reached = {tuple(range(m))}
    frontier = list(reached)
    while frontier:
        new = {uvbraid.homs._mul(x, g) for x in frontier for g in gens} - reached
        reached |= new
        frontier = list(new)
    return len(reached)


def test_byte_composition_is_the_tuple_product():
    perms = [bytes(p) for p in permutations(range(4))]
    for a in perms:
        for b in perms:
            got = uvbraid.homs.compose_images(a, b)
            assert tuple(got) == uvbraid.homs._mul(tuple(a), tuple(b))
    # a degree of 256 fills the whole table, with no padding
    a, b = bytes(range(255, -1, -1)), bytes(range(1, 256)) + b"\x00"
    assert uvbraid.homs.compose_images(a, b) == bytes(a[x] for x in b)


def test_row_kernel_matches_the_tuple_product_at_5_1_4():
    rows = enumerate_rows(Params(5, 1), 4)
    assert len(rows) == 72
    for row in rows:
        images = tuple_row_images(row, 4)
        assert row_is_abelian(row, 4) == uvbraid.homs._commute(images, uvbraid.homs._mul)
        assert verify._image_order(row, 4) == tuple_image_order(row, 4)


def test_row_kernel_matches_the_tuple_product_on_non_abelian_rows_at_5_1_5():
    rows = [row for row in enumerate_rows(Params(5, 1), 5) if not row_is_abelian(row, 5)]
    assert len(rows) == 240
    for row in rows:
        assert not uvbraid.homs._commute(tuple_row_images(row, 5), uvbraid.homs._mul)
        assert verify._image_order(row, 5) == tuple_image_order(row, 5) == 120
