import itertools
import random
import tracemalloc

import pytest

from uvbraid import (
    KLetter,
    KWord,
    Params,
    clique_number,
    dominating_vertices,
    f2xf2_witness,
    is_p3_free,
    max_clique,
    normal_form,
    parse_word,
    to_dot,
    to_normal_form,
)
from uvbraid.raag import commute, vertices
from uvbraid.verify import _dominating, _max_clique_ids, build_graph


def vertices_commute(u, v):
    """Pairwise reference: colour-blind disjointness of the strand pairs."""
    return not ({u[0], u[1]} & {v[0], v[1]})


def D(i, j, t, sign=1):
    return KLetter(i, j, t, sign)


def kword(params, *letters):
    return KWord(params, tuple(letters))


def random_kword(params, rng, max_len):
    verts = list(vertices(params))
    letters = []
    for _ in range(rng.randrange(max_len + 1)):
        i, j, t = rng.choice(verts)
        letters.append(KLetter(i, j, t, rng.choice((1, -1))))
    return KWord(params, tuple(letters))


def test_kletter_validation():
    with pytest.raises(ValueError):
        KLetter(1, 1, 1)
    with pytest.raises(ValueError):
        KLetter(0, 2, 1)
    with pytest.raises(ValueError):
        KLetter(1, 2, 0)


def test_kletter_tokens_and_parse():
    w = kword(Params(4, 2), D(1, 3, 2), D(2, 1, 1, -1))
    assert str(w) == "d1.3.2 D2.1.1"
    nf = to_normal_form(parse_word("r1 s2.1", Params(3, 1)))
    assert str(nf.kword) == "d1.3.1"


def test_vertices_commute_is_disjointness():
    assert vertices_commute((1, 2, 1), (3, 4, 1))
    assert vertices_commute((1, 2, 1), (3, 4, 2))
    assert not vertices_commute((1, 2, 1), (2, 1, 1))
    assert not vertices_commute((1, 2, 1), (2, 3, 1))
    # colour never matters, only the strand pairs
    assert not vertices_commute((1, 2, 1), (1, 2, 2))


@pytest.mark.parametrize("n", range(1, 7))
def test_commute_matches_pairwise_reference(n):
    verts = list(vertices(Params(n, 2)))
    assert verts == sorted(set(verts)) and len(verts) == n * (n - 1) * 2
    for u in verts:
        for v in verts:
            assert commute(u, v) == vertices_commute(u, v)


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("c", (1, 2, 3))
def test_mask_adjacency_matches_pairwise_reference(n, c):
    g = build_graph(Params(n, c))
    for a, u in enumerate(g.verts):
        for b, v in enumerate(g.verts):
            assert bool((g.adj[a] >> b) & 1) == (a != b and vertices_commute(u, v))


def test_graph_sizes():
    # n(n-1)c ordered pairs
    assert len(build_graph(Params(4, 1)).verts) == 12
    assert len(build_graph(Params(4, 2)).verts) == 24
    g = build_graph(Params(3, 2))
    assert len(g.verts) == 12
    assert g.edge_count() == 0


def test_adjacency_examples():
    g = build_graph(Params(4, 1))
    assert g.adjacent((1, 2, 1), (3, 4, 1))
    assert not g.adjacent((1, 2, 1), (2, 1, 1))
    assert not g.adjacent((1, 2, 1), (1, 2, 1))


def test_normal_form_sorts_commuting_letters():
    p = Params(4, 1)
    w = kword(p, D(3, 4, 1), D(1, 2, 1))
    assert normal_form(w).letters == (D(1, 2, 1), D(3, 4, 1))


def test_normal_form_cancels_across_commuting_letters():
    p = Params(4, 1)
    w = kword(p, D(1, 2, 1), D(3, 4, 1), D(1, 2, 1, -1))
    assert normal_form(w).letters == (D(3, 4, 1),)


def test_normal_form_keeps_noncommuting_order():
    p = Params(4, 1)
    w = kword(p, D(2, 3, 1), D(1, 2, 1))
    assert normal_form(w).letters == (D(2, 3, 1), D(1, 2, 1))


def test_normal_form_rejects_foreign_letters():
    p = Params(4, 1)
    with pytest.raises(ValueError):
        normal_form(kword(p, D(1, 2, 2)))


def test_normal_form_memory_follows_the_word_not_n():
    # Stacks exist only for the strands a word touches: two letters at
    # n = 10^6 must not allocate a stack per strand.
    p = Params(10**6, 1)
    w = kword(p, D(1, 2, 1), D(10**6, 3, 1, -1))
    tracemalloc.start()
    try:
        nf = normal_form(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert nf.letters == (D(1, 2, 1), D(10**6, 3, 1, -1))
    assert peak < 1_000_000


def test_normal_form_idempotent_and_kills_inverses():
    rng = random.Random(11)
    for n, c in ((3, 1), (4, 1), (5, 2)):
        p = Params(n, c)
        for _ in range(80):
            w = random_kword(p, rng, 20)
            nf = normal_form(w)
            assert normal_form(nf) == nf
            assert normal_form(KWord(p, w.letters + w.inverse().letters)).letters == ()


def test_normal_form_congruence():
    rng = random.Random(13)
    p = Params(5, 1)
    for _ in range(60):
        u = random_kword(p, rng, 12)
        v = random_kword(p, rng, 12)
        direct = normal_form(KWord(p, u.letters + v.letters))
        via = normal_form(
            KWord(p, normal_form(u).letters + normal_form(v).letters)
        )
        assert direct == via


def test_free_cases_degenerate_to_free_reduction():
    for c in (1, 2, 3):
        for n in (2, 3):
            g = build_graph(Params(n, c))
            assert g.edge_count() == 0
            assert len(g.verts) == (2 * c if n == 2 else 6 * c)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("c", (1, 2, 3))
def test_clique_number_formula(n, c):
    assert clique_number(Params(n, c)) == n // 2


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("c", (1, 2, 3))
def test_branch_and_bound_matches_matching_witness(n, c):
    p = Params(n, c)
    assert len(_max_clique_ids(build_graph(p))) == len(max_clique(p))


@pytest.mark.parametrize("n", range(2, 13))
def test_max_clique_is_strand_disjoint(n):
    clique = max_clique(Params(n, 2))
    assert len(clique) == n // 2
    for u, v in itertools.combinations(clique, 2):
        assert vertices_commute(u, v)


def test_clique_number_beyond_search_reach():
    assert clique_number(Params(40, 2)) == 20


def test_clique_number_memory_does_not_follow_n():
    # floor(n/2) is read off the pigeonhole bound, not off a built matching
    tracemalloc.start()
    try:
        k = clique_number(Params(10**6, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert k == 500_000
    assert peak < 1_000_000


@pytest.mark.parametrize("n", range(2, 8))
@pytest.mark.parametrize("c", (1, 2, 3))
def test_p3_witness_is_the_first_in_vertex_order(n, c):
    verts = list(vertices(Params(n, c)))
    scan = (
        (a, mid, b)
        for mid in verts
        for a, b in itertools.combinations([v for v in verts if vertices_commute(mid, v)], 2)
        if not vertices_commute(a, b)
    )
    first = next(scan, None)
    assert is_p3_free(Params(n, c)) == ((True, None) if first is None else (False, first))


def test_max_clique_is_a_clique():
    g = build_graph(Params(7, 2))
    clique = max_clique(Params(7, 2))
    assert len(clique) == 3
    for a in clique:
        for b in clique:
            if a != b:
                assert g.adjacent(a, b)


def test_p3_free_iff_small_n():
    assert is_p3_free(Params(3, 3))[0]
    free, witness = is_p3_free(Params(4, 1))
    assert not free
    v1, v2, v3 = witness
    g = build_graph(Params(4, 1))
    assert g.adjacent(v1, v2) and g.adjacent(v2, v3) and not g.adjacent(v1, v3)


def test_f2xf2_witness_pattern():
    assert f2xf2_witness(Params(3, 3)) is None
    g = build_graph(Params(4, 1))
    x1, x2, y1, y2 = f2xf2_witness(Params(4, 1))
    assert not g.adjacent(x1, x2) and not g.adjacent(y1, y2)
    for x in (x1, x2):
        for y in (y1, y2):
            assert g.adjacent(x, y)


def test_no_dominating_vertices():
    for n in range(1, 9):
        for c in (1, 2, 3):
            p = Params(n, c)
            scan = () if n == 1 else _dominating(build_graph(p))
            assert dominating_vertices(p) == scan == ()


def test_dot_output_is_stable():
    dot = "".join(to_dot(Params(3, 1)))
    assert dot == "".join(to_dot(Params(3, 1)))
    assert dot.startswith("graph commutation {\n")
    assert dot.endswith("}\n")
    assert '"d1.2.1";' in dot
    assert "--" not in dot  # edgeless for n=3
    dot4 = "".join(to_dot(Params(4, 1)))
    assert '"d1.2.1" -- "d3.4.1";' in dot4
    assert "".join(to_dot(Params(1, 2))) == "graph commutation {\n}\n"


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("c", (1, 2, 3))
def test_dot_matches_mask_graph(n, c):
    # Vertex lines in vertex order, then one edge line per adjacent index
    # pair a < b of the bitmask graph, in order.
    g = build_graph(Params(n, c))
    names = [f'"d{i}.{j}.{t}"' for i, j, t in g.verts]
    expected = (
        ["graph commutation {"]
        + [f"  {name};" for name in names]
        + [
            f"  {names[a]} -- {names[b]};"
            for a in range(len(names))
            for b in range(a + 1, len(names))
            if (g.adj[a] >> b) & 1
        ]
        + ["}"]
    )
    assert "".join(to_dot(Params(n, c))).split("\n") == expected + [""]


def test_graph_is_cached():
    assert build_graph(Params(4, 1)) is build_graph(Params(4, 1))
