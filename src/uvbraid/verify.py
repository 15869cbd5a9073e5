"""Built-in verification suite for the library's mathematical claims.

Each check exercises one headline property of UV(n, c) end to end at
fixed parameter ranges, using an independent source of truth where one
exists (closed formulas, the raw-presentation prover, exhaustive
enumeration).  ``run_all`` returns one result per claim; the CLI
``verify-paper`` command renders them and fails if any claim does.
The library never builds the commutation graph; the claims about it check
the library at n <= 8 against the bitmask graph built here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Callable

from . import homs, oracle, quotients, raag, semidirect
from .perms import adjacent, all_perms, rho_word, virtual_permutation
from .raag import KLetter, Vertex
from .semidirect import (
    commutator,
    expand_kword,
    kletter_to_word,
    permute_kletter,
    to_normal_form,
)
from .words import Params, Word, per_params, random_word, relator_words, rho, sigma, word

DEFAULT_SEED = 271828


@dataclass(frozen=True)
class CheckResult:
    claim: str
    ok: bool
    details: str


CHECKS: list[tuple[str, Callable[[int], CheckResult]]] = []


def _claim(name: str):
    """Register a check as the claim ``name`` in ``CHECKS``.

    The check returns its failures and the details to report when there
    are none; the claim holds exactly when the failure list is empty.
    """

    def register(check: Callable[[int], tuple[list[str], str]]) -> Callable[[int], CheckResult]:
        def run(seed: int) -> CheckResult:
            bad, details = check(seed)
            return CheckResult(name, not bad, "; ".join(bad[:5]) if bad else details)

        CHECKS.append((name, run))
        return run

    return register


def _seeded(seed: int, claim: str) -> Random:
    return Random(f"{seed}:{claim}")


@_claim("relator-triviality")
def check_relator_triviality(seed: int) -> tuple[list[str], str]:
    bad: list[str] = []
    count = 0
    for n in range(2, 9):
        for c in range(1, 4):
            params = Params(n, c)
            for label, w in relator_words(params):
                count += 1
                if not semidirect.is_trivial(w):
                    bad.append(f"n={n} c={c} {label}")
    return bad, f"{count} relator instances trivial over n=2..8, c=1..3"


class _CommGraph:
    """The commutation graph on the kernel letters of UV(n, c), as bitmasks."""

    def __init__(self, params: Params):
        self.params = params
        self.verts: tuple[Vertex, ...] = tuple(raag.vertices(params))
        self.index: dict[Vertex, int] = {v: k for k, v in enumerate(self.verts)}
        # A vertex is adjacent to every vertex touching neither of its strands.
        touching = [0] * (params.n + 1)
        for k, (i, j, _) in enumerate(self.verts):
            touching[i] |= 1 << k
            touching[j] |= 1 << k
        full = (1 << len(self.verts)) - 1
        self.adj: tuple[int, ...] = tuple(
            full & ~(touching[i] | touching[j]) for (i, j, _) in self.verts
        )

    def adjacent(self, u: Vertex, v: Vertex) -> bool:
        return bool((self.adj[self.index[u]] >> self.index[v]) & 1)

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2


@per_params
def build_graph(params: Params) -> _CommGraph:
    """The commutation graph of UV(n, c), a table of the ``words`` registry."""
    return _CommGraph(params)


def _max_clique_ids(g: _CommGraph) -> list[int]:
    """Exact maximum clique via branch and bound with greedy colouring bounds."""
    adj = g.adj
    best: list[int] = []
    stack: list[int] = []

    def expand(candidates: int) -> None:
        nonlocal best
        order: list[int] = []
        bounds: list[int] = []
        uncoloured = candidates
        colour = 0
        while uncoloured:
            colour += 1
            avail = uncoloured
            while avail:
                v = (avail & -avail).bit_length() - 1
                bit = 1 << v
                avail &= ~adj[v] & ~bit
                uncoloured &= ~bit
                order.append(v)
                bounds.append(colour)
        remaining = candidates
        for idx in range(len(order) - 1, -1, -1):
            if len(stack) + bounds[idx] <= len(best):
                return
            v = order[idx]
            stack.append(v)
            rest = remaining & adj[v]
            if rest:
                expand(rest)
            elif len(stack) > len(best):
                best = stack.copy()
            stack.pop()
            remaining &= ~(1 << v)

    expand((1 << len(g.verts)) - 1)
    return sorted(best)


@_claim("vcd-clique-number")
def check_clique_number(seed: int) -> tuple[list[str], str]:
    bad: list[str] = []
    for n in range(2, 9):
        for c in range(1, 4):
            g = build_graph(Params(n, c))
            got = len(_max_clique_ids(g))
            if got != n // 2:
                bad.append(f"n={n} c={c}: clique {got} != {n // 2}")
    return bad, "branch-and-bound clique number matches floor(n/2) for n=2..8, c=1..3"


@_claim("howson-p3-classification")
def check_p3_classification(seed: int) -> tuple[list[str], str]:
    bad: list[str] = []
    for n in range(2, 9):
        for c in range(1, 4):
            g = build_graph(Params(n, c))
            free, witness = raag.is_p3_free(g.params)
            if free != (n <= 3):
                bad.append(f"n={n} c={c}: p3-free={free}")
            if not free:
                v1, v2, v3 = witness
                if not (g.adjacent(v1, v2) and g.adjacent(v2, v3)) or g.adjacent(v1, v3):
                    bad.append(f"n={n} c={c}: invalid witness {witness}")
    return bad, "induced-path freeness iff n<=3, witnesses valid, n=2..8, c=1..3"


@_claim("lerf-f2xf2-obstruction")
def check_f2xf2(seed: int) -> tuple[list[str], str]:
    bad: list[str] = []
    for n in range(2, 9):
        for c in range(1, 4):
            g = build_graph(Params(n, c))
            witness = raag.f2xf2_witness(g.params)
            if (witness is not None) != (n >= 4):
                bad.append(f"n={n} c={c}: witness={witness}")
            if witness is not None:
                x1, x2, y1, y2 = witness
                joined = all(g.adjacent(x, y) for x in (x1, x2) for y in (y1, y2))
                if not joined or g.adjacent(x1, x2) or g.adjacent(y1, y2):
                    bad.append(f"n={n} c={c}: bad pattern {witness}")
    return bad, "F2xF2 witness exists iff n>=4 with full join pattern, n=2..8, c=1..3"


@_claim("free-kernel-small-n")
def check_small_kernels_free(seed: int) -> tuple[list[str], str]:
    bad: list[str] = []
    for c in range(1, 6):
        g2 = build_graph(Params(2, c))
        g3 = build_graph(Params(3, c))
        if len(g2.verts) != 2 * c or g2.edge_count() != 0:
            bad.append(f"n=2 c={c}: {len(g2.verts)} verts {g2.edge_count()} edges")
        if len(g3.verts) != 6 * c or g3.edge_count() != 0:
            bad.append(f"n=3 c={c}: {len(g3.verts)} verts {g3.edge_count()} edges")
    return bad, "kernel graphs edgeless with 2c and 6c vertices for c=1..5"


@_claim("conjugation-reindexing")
def check_conjugation_action(seed: int) -> tuple[list[str], str]:
    bad: list[str] = []
    count = 0
    for n in (2, 3, 4):
        for c in (1, 2):
            params = Params(n, c)
            for p in all_perms(n):
                section = rho_word(p, params)
                for i, j, t in raag.vertices(params):
                    count += 1
                    d = KLetter(i, j, t, 1)
                    lhs = section * kletter_to_word(d, params) * section.inverse()
                    rhs = kletter_to_word(permute_kletter(p, d), params)
                    if not semidirect.are_equal(lhs, rhs):
                        bad.append(f"n={n} c={c} p={p.images} d={d.token()}")
    proven = 0
    checked = 0
    params = Params(4, 1)
    for k in (1, 2, 3):
        p = adjacent(4, k)
        section = rho_word(p, params)
        for i, j, t in raag.vertices(params):
            d = KLetter(i, j, t, 1)
            lhs = section * kletter_to_word(d, params) * section.inverse()
            rhs = kletter_to_word(permute_kletter(p, d), params)
            checked += 1
            result = oracle.bfs_equal(lhs, rhs, max_depth=5, max_frontier=2500)
            if result.proven:
                proven += 1
                if len(oracle.replay(lhs, rhs, result.path)) != 0:
                    bad.append(f"replay failed for p=s{k} d={d.token()}")
                if not semidirect.are_equal(lhs, rhs):
                    bad.append(f"prover disagrees with engine at p=s{k} d={d.token()}")
    if proven < 10:
        bad.append(f"only {proven}/{checked} instances proven")
    return bad, (
        f"{count} conjugation instances equal; prover confirmed {proven}/{checked}"
        " single-transposition instances independently"
    )


@_claim("factorisation-soundness")
def check_factorisation_soundness(seed: int) -> tuple[list[str], str]:
    rng = _seeded(seed, "factorisation")
    bad: list[str] = []
    count = 0
    for n in (3, 4, 5):
        for c in (1, 2):
            params = Params(n, c)
            for _ in range(1000):
                w = random_word(params, rng, 30)
                nf = to_normal_form(w)
                rebuilt = expand_kword(nf.kword) * rho_word(nf.perm, params)
                count += 1
                if virtual_permutation(w) != nf.perm:
                    bad.append(f"perm mismatch n={n} c={c}: {w}")
                elif not semidirect.are_equal(w, rebuilt):
                    bad.append(f"n={n} c={c}: {w}")
                if len(bad) > 3:
                    break
    return bad, f"{count} random words of length <= 30 re-assemble from their normal forms"


def _virtual_pair_identity_word(params: Params) -> Word:
    a = word(params, rho(3), rho(1))
    b = word(params, rho(1), rho(2))
    return a.inverse() * b.inverse() * commutator(a, b) * b


def _crossing_commutator_word(params: Params, i: int, t: int) -> Word:
    x = word(params, sigma(i, t))
    y = word(params, rho(i + 1), rho(i))
    target = word(params, sigma(i, t, -1), sigma(i + 1, t))
    return commutator(x, y) * target.inverse()


@_claim("commutator-identities")
def check_commutator_identities(seed: int) -> tuple[list[str], str]:
    bad: list[str] = []
    count = 0
    for n in (4, 5, 6):
        for c in (1, 2):
            params = Params(n, c)
            count += 1
            if not semidirect.is_trivial(_virtual_pair_identity_word(params)):
                bad.append(f"virtual-pair identity fails at n={n} c={c}")
            for i in range(1, n - 1):
                for t in range(1, c + 1):
                    count += 1
                    if not semidirect.is_trivial(_crossing_commutator_word(params, i, t)):
                        bad.append(f"crossing commutator fails n={n} c={c} i={i} t={t}")
    return bad, f"{count} commutator identities trivial for n=4..6"


def _all_bits(c: int):
    for k in range(2 ** (c + 1)):
        yield tuple((k >> b) & 1 for b in range(c + 1))


@_claim("admissibility")
def check_admissibility(seed: int) -> tuple[list[str], str]:
    bad: list[str] = []
    for n in range(3, 8):
        for c in range(1, 4):
            params = Params(n, c)
            admissible = 0
            for bits in sorted(_all_bits(c)):
                h = homs.hom_from_bits(bits, params)
                ok_hom, label = homs.verify_homspec(h, params)
                if bits[c] == 1 and not ok_hom:
                    bad.append(f"n={n} c={c} bits={bits}: relation {label} fails")
                got = homs.is_admissible(bits, params)
                if got != (bits[c] == 1):
                    bad.append(f"n={n} c={c} bits={bits}: admissible={got}")
                admissible += got
            if admissible != 2**c:
                bad.append(f"n={n} c={c}: {admissible} admissible tuples != {2 ** c}")
    return bad, (
        "switched-on-virtual tuples are homomorphisms; admissible iff virtual bit set,"
        " exactly 2^c per (n, c), n=3..7, c=1..3"
    )


@_claim("abelianisation-parity")
def check_abelianisation(seed: int) -> tuple[list[str], str]:
    bad: list[str] = []
    zero_count = 0
    for n in range(2, 9):
        for c in range(1, 4):
            params = Params(n, c)
            for label, w in relator_words(params):
                img = homs.abelianize(w)
                zero_count += 1
                if any(img.sigma_exponents) or img.rho_parity:
                    bad.append(f"n={n} c={c} {label} -> {img}")
            for i in range(1, n):
                for t in range(1, c + 1):
                    if homs.color_parity(t, word(params, sigma(i, t), rho(i))) != 1:
                        bad.append(f"n={n} c={c} parity of s{i}.{t} r{i} != 1")
    return bad, (
        f"{zero_count} relators abelianise to zero; colour parity detects single crossings"
    )


def _image_order(row: bytes, m: int) -> int:
    """Size of the closure of a row's generator images under right multiplication."""
    gens = set(homs.row_images(row, m))
    reached = [bytes(range(m))]
    seen = set(reached)
    for x in reached:  # the list grows while it is walked
        table = homs.image_table(x)  # x * g is g translated by x's table
        new = {g.translate(table) for g in gens} - seen
        seen |= new
        reached += new
    return len(reached)


@_claim("small-target-rigidity")
def check_small_target_rigidity(seed: int) -> tuple[list[str], str]:
    # S_m with m < n has fewer than n! elements, so below m = n every
    # non-abelian image is a failure
    n, order = 5, math.factorial(5)
    budget = homs.SearchBudget(max_nodes=5_000_000, max_seconds=300.0)
    bad: list[str] = []
    counts, non_abelian = {}, 0
    for m in range(2, n + 1):
        rows = homs.enumerate_rows(Params(n, 1), m, budget)
        counts[m] = len(rows)
        for row in rows:
            if not homs.row_is_abelian(row, m):
                non_abelian += 1
                size = _image_order(row, m)
                if size != order:
                    bad.append(f"m={m}: non-abelian image of order {size}")
    if not non_abelian:
        bad.append(f"m={n}: no non-abelian image")
    return bad, (
        f"all homomorphisms to S_2 ({counts[2]}), S_3 ({counts[3]}) and S_4 ({counts[4]})"
        f" from n={n} have abelian image; the {non_abelian} non-abelian ones of"
        f" {counts[n]} to S_{n} are onto ({order} elements)"
    )


@_claim("finite-quotients")
def check_finite_quotients(seed: int) -> tuple[list[str], str]:
    bad: list[str] = []
    count = 0
    for n in range(2, 8):
        for c in range(1, 4):
            params = Params(n, c)
            for d in (2, 3):
                ident = quotients.quotient_identity(params, d)
                for label, w in relator_words(params):
                    count += 1
                    if quotients.quotient_image(w, d) != ident:
                        bad.append(f"n={n} c={c} d={d} {label}")
    cert = quotients.quotient_order(Params(5, 2), 2)
    if cert.order != 480 or cert.order <= cert.n_factorial:
        bad.append(f"order certificate wrong: {cert}")
    if cert.method != "closure" or cert.closure_size != 480:
        bad.append(f"no closure certificate at (5,2,2): {cert}")
    return bad, (
        f"{count} relators die in (Z/d)^c x S_n for d=2,3, n=2..7, c=1..3;"
        f" order at n=5, c=2, d=2 is {cert.order} > 120 by closure"
    )


def _dominating(g: _CommGraph) -> tuple[Vertex, ...]:
    """Vertices adjacent to every other vertex, by a scan of the masks."""
    full = (1 << len(g.verts)) - 1
    return tuple(v for k, v in enumerate(g.verts) if g.adj[k] == full & ~(1 << k))


@_claim("trivial-centre")
def check_trivial_centre(seed: int) -> tuple[list[str], str]:
    bad: list[str] = []
    for n in range(2, 9):
        for c in range(1, 4):
            g = build_graph(Params(n, c))
            dom = _dominating(g)
            if dom or raag.dominating_vertices(g.params):
                bad.append(f"n={n} c={c}: dominating {dom}")
    for n in range(3, 7):
        params = Params(n, 1)
        u = word(params, rho(1), sigma(1, 1))
        v = word(params, sigma(1, 1), rho(1))
        if semidirect.are_equal(u, v):
            bad.append(f"n={n}: r1 and s1.1 commute")
    return bad, "no dominating vertices (n=2..8, c=1..3); r1 s1.1 != s1.1 r1 for n=3..6"


@_claim("section-identity")
def check_section_identity(seed: int) -> tuple[list[str], str]:
    bad: list[str] = []
    count = 0
    for n in range(1, 7):
        params = Params(n, 1)
        for p in all_perms(n):
            count += 1
            if virtual_permutation(rho_word(p, params)) != p:
                bad.append(f"n={n} p={p.images}")
    return bad, (
        f"virtual projection of the section is the identity on {count} permutations, n<=6"
    )


@_claim("oracle-coherence")
def check_oracle_coherence(seed: int) -> tuple[list[str], str]:
    rng = _seeded(seed, "oracle")
    params = Params(4, 1)
    disagreements: list[str] = []
    proven = 0
    for _ in range(500):
        u = random_word(params, rng, 8)
        v = random_word(params, rng, 8)
        result = oracle.bfs_equal(u, v, max_depth=10, max_frontier=300)
        if result.proven:
            proven += 1
            if not semidirect.are_equal(u, v):
                disagreements.append(f"{u} vs {v}")
            if len(oracle.replay(u, v, result.path)) != 0:
                disagreements.append(f"replay failed: {u} vs {v}")
    return disagreements, (
        f"500 random pairs, {proven} proven equal by the raw-presentation prover,"
        " zero disagreements with the normal-form engine"
    )


def run_all(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    return [fn(seed) for _, fn in CHECKS]
