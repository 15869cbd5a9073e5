"""The table-driven homomorphism search against the engine it replaced.

``reference_enumerate_homs`` is the earlier search: involutions tested
by hand-written braid and far-commutation checks (``rho_ok``), crossing
columns by hand-written commutation checks (``column_ok``), all on
validated ``Perm``s through ``compose``.  ``reference_verify_homspec``
is the earlier verification: it folds each side of every defining
relation as a ``Word`` with ``HomSpec.evaluate``, taking the relations
from the Word-built list in ``tests/relations_reference.py``.  Neither
reads ``words.relation_codes``.
"""

import random
import time
from functools import lru_cache
from typing import Optional

import pytest

from uvbraid import (
    BudgetExceededError,
    HomSpec,
    Params,
    Perm,
    SearchBudget,
    enumerate_homs,
    verify_homspec,
)
from uvbraid.homs import _check_shape, sorted_homs
from uvbraid.perms import all_perms

from perm_reference import compose
from relations_reference import reference_relations


def reference_verify_homspec(h: HomSpec, params: Params) -> tuple[bool, Optional[str]]:
    _check_shape(h, params)
    for label, lhs, rhs in reference_relations(params):
        if h.evaluate(lhs) != h.evaluate(rhs):
            return False, label
    return True, None


def reference_enumerate_homs(
    params: Params, m: int, budget: Optional[SearchBudget] = None
) -> list[HomSpec]:
    if m < 1:
        raise ValueError(f"target degree must be >= 1, got m={m}")
    if budget is None:
        budget = SearchBudget()
    n, c = params.n, params.c
    if n == 1:
        return [HomSpec(m, (), ())]
    order = 1
    for k in range(2, m + 1):
        order *= k
        if order > budget.max_nodes:
            # all-identity virtual images admit every first crossing image,
            # so the search would try all m! of them: refuse before building S_m
            raise BudgetExceededError(f"node budget {budget.max_nodes} exceeded", [])
    found: list[HomSpec] = []
    nodes = 0
    started = time.monotonic()

    def check_time() -> None:
        if time.monotonic() - started > budget.max_seconds:
            raise BudgetExceededError(
                f"time budget {budget.max_seconds}s exceeded", sorted_homs(found)
            )

    def spend() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget.max_nodes:
            raise BudgetExceededError(
                f"node budget {budget.max_nodes} exceeded", sorted_homs(found)
            )
        if nodes % 256 == 0:
            check_time()

    sym: list[Perm] = []
    involutions: list[Perm] = []
    for p in all_perms(m):
        if len(sym) % 256 == 0:
            check_time()
        sym.append(p)
        if compose(p, p).is_identity:
            involutions.append(p)

    rho_imgs: list[Perm] = []
    sigma_cols: list[list[Perm]] = []  # sigma_cols[t-1][i-1]

    def rho_ok(r: Perm) -> bool:
        k = len(rho_imgs)  # candidate would become image of r<k+1>
        if k >= 1:
            prev = rho_imgs[k - 1]
            braid_l = compose(compose(prev, r), prev)
            braid_r = compose(compose(r, prev), r)
            if braid_l != braid_r:
                return False
        for j in range(k - 1):
            other = rho_imgs[j]
            if compose(other, r) != compose(r, other):
                return False
        return True

    def column_ok(col: list[Perm], t_idx: int) -> bool:
        # far crossing commutations within and across completed columns,
        # and far crossing/virtual commutations for this column
        for i in range(n - 1):
            for j in range(n - 1):
                if abs(i - j) < 2:
                    continue
                if compose(col[i], rho_imgs[j]) != compose(rho_imgs[j], col[i]):
                    return False
        for other in sigma_cols[:t_idx] + [col]:
            for i in range(n - 1):
                for j in range(i + 2, n - 1):
                    if compose(col[i], other[j]) != compose(other[j], col[i]):
                        return False
                    if compose(other[i], col[j]) != compose(col[j], other[i]):
                        return False
        return True

    def assign_sigma(t_idx: int) -> None:
        if t_idx == c:
            image_sigma = tuple(
                tuple(sigma_cols[t][i] for t in range(c)) for i in range(n - 1)
            )
            h = HomSpec(m, tuple(rho_imgs), image_sigma)
            check_time()
            ok, _ = reference_verify_homspec(h, params)
            if ok:
                found.append(h)
            return
        for first in sym:
            spend()
            col = [first]
            for i in range(1, n - 1):
                # slide relation: image of s<i+1>.<t> is forced by conjugation
                y = compose(rho_imgs[i - 1], rho_imgs[i])
                col.append(compose(compose(y, col[i - 1]), y.inverse()))
            if not column_ok(col, t_idx):
                continue
            sigma_cols.append(col)
            assign_sigma(t_idx + 1)
            sigma_cols.pop()

    def assign_rho(k: int) -> None:
        if k == n - 1:
            assign_sigma(0)
            return
        for r in involutions:
            spend()
            if not rho_ok(r):
                continue
            rho_imgs.append(r)
            assign_rho(k + 1)
            rho_imgs.pop()

    assign_rho(0)
    return sorted_homs(found)


GRID = [(n, c, m) for n in range(1, 6) for c in (1, 2) for m in range(1, 5)]


@lru_cache(maxsize=None)
def found_homs(n: int, c: int, m: int) -> list[HomSpec]:
    return enumerate_homs(Params(n, c), m)


@pytest.mark.parametrize("n,c,m", GRID + [(5, 1, 5), (6, 2, 3)])
def test_enumeration_matches_reference(n, c, m):
    p = Params(n, c)
    found = found_homs(n, c, m)
    # the reference keeps only what passes reference_verify_homspec
    assert found == reference_enumerate_homs(p, m)
    assert all(verify_homspec(h, p) == (True, None) for h in found)


# The node count of the whole search, which is the least budget that completes.
TOTAL_NODES = {(6, 6, 3): 4460, (5, 2, 4): 2998, (5, 1, 5): 28934, (4, 2, 3): 264, (5, 1, 4): 1270}
# Where each r1 subtree ends, in the plain search's order of r1's involutions.
# The first subtree of a conjugacy class is searched; a later one is charged
# the first one's count if it fits the budget, and searched otherwise.
SUBTREE_ENDS = {
    (5, 1, 4): [55, 230, 405, 580, 755, 810, 985, 1040, 1215, 1270],
    (5, 2, 4): [631, 902, 1173, 1444, 1715, 1962, 2233, 2480, 2751, 2998],
}
BUDGET_CASES = [
    (6, 6, 3, 300), (5, 2, 4, 100), (5, 1, 5, 2000), (4, 2, 3, 50),
    (5, 1, 4, 1269), (5, 1, 4, 1270), (5, 1, 5, 10000),
]
BUDGET_CASES += sorted(
    {(*shape, end + d) for shape, ends in SUBTREE_ENDS.items() for end in ends for d in (-1, 0, 1)}
    - set(BUDGET_CASES)
)


# At (5, 1, 5), with 10,000 nodes, the first subtree of each class of r1's
# image is searched, and the budget runs out in a later subtree whose class
# count no longer fits.
@pytest.mark.parametrize("n,c,m,max_nodes", BUDGET_CASES)
def test_node_budget_stops_where_the_reference_stops(n, c, m, max_nodes):
    p = Params(n, c)
    budget = SearchBudget(max_nodes=max_nodes, max_seconds=60.0)

    def outcome(search):
        try:
            return "ok", search(p, m, budget)
        except BudgetExceededError as exc:
            return str(exc), exc.partial

    ours = outcome(enumerate_homs)
    assert ours == outcome(reference_enumerate_homs)
    # only a budget that covers the whole search completes
    assert (ours[0] == "ok") == (max_nodes >= TOTAL_NODES[n, c, m])


def test_a_node_budget_error_does_not_search_again(monkeypatch):
    import uvbraid.homs

    products = 0
    real_product = uvbraid.homs._product

    def counting_product(*args):
        nonlocal products
        products += 1
        return real_product(*args)

    monkeypatch.setattr(uvbraid.homs, "_product", counting_product)
    p = Params(5, 1)
    enumerate_homs(p, 5, SearchBudget(max_nodes=10**9, max_seconds=60.0))
    unlimited, products = products, 0
    # a budget of exactly the node count still charges the last subtree by count
    enumerate_homs(p, 5, SearchBudget(max_nodes=TOTAL_NODES[5, 1, 5], max_seconds=60.0))
    assert products == unlimited
    products = 0
    with pytest.raises(BudgetExceededError, match="node budget 10000 exceeded"):
        enumerate_homs(p, 5, SearchBudget(max_nodes=10_000, max_seconds=60.0))
    # searching again from r1's first involution to report the error would
    # walk every subtree, evaluating more than twice the unlimited run's products
    assert products < 2 * unlimited


def _random_spec(rng: random.Random, p: Params, m: int, pool: list) -> HomSpec:
    """Images drawn from a small pool, or one enumerated hom with one image
    replaced, so that failures land all through the relation order."""
    if rng.random() < 0.5:
        base = rng.choice(found_homs(p.n, p.c, m))
        images = base.generator_images()
        images[rng.randrange(len(images))] = rng.choice(pool)
    else:
        images = [rng.choice(pool) for _ in range((p.n - 1) * (p.c + 1))]
    rho_imgs = tuple(images[: p.n - 1])
    sigma = images[p.n - 1 :]
    columns = tuple(tuple(sigma[k * p.c : (k + 1) * p.c]) for k in range(p.n - 1))
    return HomSpec(m, rho_imgs, columns)


def test_verify_labels_match_word_folding_reference():
    rng = random.Random(20260)
    labels = set()
    for _ in range(2400):
        n, c, m = rng.randint(2, 5), rng.randint(1, 2), rng.randint(1, 4)
        p = Params(n, c)
        perms = list(all_perms(m))
        pool = [perms[0], perms[-1], rng.choice(perms)] + [
            q for q in perms if compose(q, q).is_identity
        ][:4]
        h = _random_spec(rng, p, m, pool)
        got = verify_homspec(h, p)
        assert got == reference_verify_homspec(h, p), h
        labels.add(got[1].split("(")[0] if got[1] else None)
    # every relation family fails somewhere in the sample, and some specs pass
    assert labels == {None, "braid", "comm", "invol", "slide"}


@pytest.mark.parametrize(
    "n,c,m", [(4, 2, 3), (5, 1, 4), (6, 6, 2), (5, 1, 3), (6, 6, 3)]
)
def test_no_full_assignment_fails_verification(n, c, m):
    # the search keeps full assignments without a final check; the
    # reference search re-verifies each one before keeping it
    p = Params(n, c)
    found = enumerate_homs(p, m)
    assert all(verify_homspec(h, p) == (True, None) for h in found)
    assert found == reference_enumerate_homs(p, m)
