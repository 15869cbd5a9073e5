"""Finite quotients (Z/d)^c x S_n of UV(n, c).

``quotient_image`` sends r<i> to (0, (i i+1)) and s<i>.<t>^e to
(e * unit_t, (i i+1)); the vector part is the per-colour signed
crossing count mod d, the permutation part is the strand permutation.
With d = 0 the vector part is taken over the integers, recovering the
crossing exponent sums of the abelianisation.

For d >= 2 the image is the whole group of order d^c * n!, strictly
larger than n!, so UV(n, c) has finite quotients bigger than the
symmetric group.  ``quotient_order`` certifies surjectivity either by
closing the images of r1..r<n-1> and s1.1..s1.c under multiplication
(small groups) or by exhibiting the vector units, (1 2) and (1 2 .. n)
inside the image (any size, linear in n).  The closure uses the direct
product: it walks the permutations breadth first, keeps one vector per
permutation, and collects the vectors over the identity permutation
into one subgroup K, so its cost follows n! and not d^c * n!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .homs import abelianize, image_table
from .perms import Perm, adjacent, identity, strand_permutation
from .words import SIGMA, Letter, Params, Word, rho, sigma, word

# Largest order that ``quotient_order`` certifies by closure.
CLOSURE_LIMIT = 20_000
# Most decimal digits, as log10 of the order, that ``quotient_order``
# computes: 2 * 25,205! passes and 2 * 25,206! does not.  ``quot order``
# computes and prints such an order in about 0.5 s, and the cost grows
# faster than the digit count.
ORDER_DIGIT_LIMIT = 100_000
# Most steps, (c + 2)(n + c), of the units certificate: it checks c + 2
# images, each with a permutation of n points and a vector of c entries.
UNITS_STEP_LIMIT = 10_000_000


@dataclass(frozen=True, slots=True)
class QuotElem:
    """Element of (Z/d)^c x S_n; modulus 0 means integer vector entries."""

    vec: tuple[int, ...]
    perm: Perm
    modulus: int

    def __post_init__(self) -> None:
        _check_modulus(self.modulus)


def _check_modulus(d: int) -> None:
    if d != 0 and d < 2:
        raise ValueError(f"modulus must be 0 (integers) or >= 2, got {d}")


def quotient_identity(params: Params, d: int) -> QuotElem:
    _check_modulus(d)
    return QuotElem((0,) * params.c, identity(params.n), d)


def _letter_image(letter: Letter, params: Params, d: int) -> QuotElem:
    vec = [0] * params.c
    if letter.kind == SIGMA:
        vec[letter.t - 1] = letter.sign % d if d else letter.sign
    return QuotElem(tuple(vec), adjacent(params.n, letter.i), d)


def quotient_image(w: Word, d: int) -> QuotElem:
    """The colour exponent sums of w (mod d unless d = 0) and its strand permutation."""
    sums = abelianize(w).sigma_exponents
    return QuotElem(tuple(x % d for x in sums) if d else sums, strand_permutation(w), d)


def _translation(vec: tuple[int, ...], d: int) -> list[int]:
    """The table of x -> x + vec on the codes of (Z/d)^c, built from the
    base-d digits, last digit first.  Over the last k digits the table
    is d blocks, block y being the table over the last k - 1 raised by
    y d^(k-1), and the blocks rotated left by vec's digit in that
    place.  While every digit read is 0 the table is the identity, kept
    as a ``range``."""
    table: Sequence[int] = range(1)
    for x in reversed(vec):
        width = len(table)
        if isinstance(table, range):
            blocks: Sequence[int] = range(d * width)
        else:
            blocks = []
            for y in range(0, d * width, width):
                blocks += map(y.__add__, table)
        if x:
            table = [*blocks[x * width :], *blocks[: x * width]]
        else:
            table = blocks
    return list(table)


def _digits(code: int, c: int, d: int) -> tuple[int, ...]:
    """The vector whose code is ``code``, most significant digit first."""
    digits = []
    for _ in range(c):
        code, x = divmod(code, d)
        digits.append(x)
    return tuple(reversed(digits))


def _grow(label: list[int], reps: list[int], shift: list[int]) -> None:
    """Renumber, in place, the cosets of K as those of K + <delta>,
    ``shift`` the translation by delta.

    ``label[x]`` numbers the coset of code x, and ``reps[i]`` is the
    least code of coset i.  Translation by delta permutes the cosets of
    K, and the cosets of K + <delta> are the unions of its cycles,
    numbered again in order of their least code."""
    succ = [label[shift[r]] for r in reps]
    merged = [-1] * len(reps)
    kept: list[int] = []
    for i, r in enumerate(reps):
        if merged[i] < 0:
            k = len(kept)
            kept.append(r)
            while merged[i] < 0:
                merged[i] = k
                i = succ[i]
    label[:] = map(merged.__getitem__, label)
    reps[:] = kept


def _generator_moves(params: Params, d: int) -> list[tuple[bytes, Optional[list[int]]]]:
    """How the images of r1..r<n-1>, s1.1..s1.c, in that order, multiply
    (vector code, permutation) on the left: each as the ``translate``
    table of its permutation and the ``_translation`` table of its
    vector, None for vector 0 (every r<i>)."""
    letters = [rho(i) for i in range(1, params.n)] + [sigma(1, t) for t in range(1, params.c + 1)]
    moves = []
    for letter in letters:
        img = _letter_image(letter, params, d)
        table = image_table(bytes(y - 1 for y in img.perm.images))
        moves.append((table, _translation(img.vec, d) if any(img.vec) else None))
    return moves


def _closure(params: Params, d: int) -> tuple[list[bytes], list[int], list[int]]:
    """The subgroup H of (Z/d)^c x S_n generated by the images of
    r1..r<n-1> and s1.1..s1.c, as (perms, tops, label): H is the union
    of (tops[j] + K) x {perms[j]}, with K the vector codes x that have
    ``label[x] == 0``.  ``label[x]`` numbers the coset of K holding x,
    and a permutation is its 0-based images, one byte per point.

    These images generate (Z/d)^c x S_n: the r<i> give S_n, and
    s1.t r1 is the unit (unit_t, 1).  The other crossings' images are
    products of these, so walking them too reaches nothing new.
    A vector is coded by its index in
    ``itertools.product(range(d), repeat=c)``.

    In a direct product with an abelian factor the vector part is
    central.  So with P the permutations of H and K the vectors of H
    over the identity permutation, the vectors above each p in P form
    one coset t_p + K, and |H| = |P| |K|.  The walk goes over P breadth first, from the
    identity with t = 0, multiplying by each generator (v_g, g) on the
    left.  A permutation first met along the edge p -> q = g p gets
    t_q = v_g + t_p, the vector of the tree word that reaches it.  By
    Schreier's lemma K is generated by v_g + t_p - t_q over all edges,
    since (v_g, g) (t_p, p) (t_q, q)^-1 is that vector over the
    identity permutation.  Tree edges give 0; every other edge is
    tested once, whether v_g + t_p lies in t_q + K, and K grows by the
    difference if it does not.  K only grows, so at the end it holds
    every Schreier generator and is generated by some of them.  Each
    growth is to a proper supergroup, at least doubling |K|, so there
    are at most log2(d^c) of them.

    The cost follows |P|: one permutation product per permutation and
    distinct generator permutation (the s1.t move the strands r1
    moves), one coset test per edge, and O(d^c) per growth of K.  A
    generator with a non-zero vector (only the s1.t) moves t by its
    ``_translation`` table; one with vector 0 (every r<i>) keeps it.
    """
    c = params.c
    size = d**c
    shifts_of: dict[bytes, list[Optional[list[int]]]] = {}
    for table, shift in _generator_moves(params, d):
        shifts_of.setdefault(table, []).append(shift)
    gens = list(shifts_of.items())
    label = list(range(size))  # K = 0 to begin with
    reps = list(range(size))
    perms = [bytes(range(params.n))]
    tops = [0]
    pid_of = {perms[0]: 0}
    for perm, top in zip(perms, tops):  # both lists grow while walked
        for table, shifts in gens:
            q = perm.translate(table)
            qid = pid_of.get(q)
            for shift in shifts:
                moved = top if shift is None else shift[top]
                if qid is None:
                    qid = pid_of[q] = len(perms)
                    perms.append(q)
                    tops.append(moved)
                elif label[moved] != label[tops[qid]]:
                    delta = zip(_digits(moved, c, d), _digits(tops[qid], c, d))
                    _grow(label, reps, _translation(tuple((x - y) % d for x, y in delta), d))
    return perms, tops, label


@dataclass(frozen=True)
class OrderCertificate:
    order: int
    n_factorial: int
    method: str  # "closure" or "units"
    closure_size: Optional[int]


def quotient_order(params: Params, d: int) -> OrderCertificate:
    """Order d^c * n! of the quotient, with a surjectivity certificate.

    Up to ``CLOSURE_LIMIT`` elements the certificate is the subgroup
    that the images of r1..r<n-1> and s1.1..s1.c generate, of order
    |P| |K| (see ``_closure``): reaching the whole order proves that
    these n-1+c images alone generate the group.  The walk takes one
    step per permutation and generator, and grows K at most log2(d^c)
    times: 0.17 ms at (n, c, d) = (5, 2, 2), and 1.9 to 27 ms at the
    largest closures, (2, 1, 10000), (7, 1, 3) and (2, 13, 2), on a
    2-core x86-64 host with Python 3.11.  Beyond
    that, the units (unit_t, 1) = image(s<1>.<t>) * image(r1)^-1,
    (0, (1 2)) = image(r1) and (0, (1 2 .. n)) = image(r1 r2 .. r<n-1>)
    are checked to lie in the image; they generate the whole group, and
    checking these c + 2 images takes time linear in n.

    Refuses up front, before any big number is built: OverflowError
    when the order has more than ``ORDER_DIGIT_LIMIT`` decimal digits
    (counted in closed form as c log10 d + log10 n!), and ValueError
    when the units certificate would take more than
    ``UNITS_STEP_LIMIT`` steps.
    """
    if d < 2:
        raise ValueError(f"finite quotients need d >= 2, got {d}")
    n, c = params.n, params.c
    if n < 2:
        raise ValueError(f"quotient order needs n >= 2, got n={n}")
    digits = c * math.log10(d) + math.lgamma(n + 1) / math.log(10)
    if digits > ORDER_DIGIT_LIMIT:
        raise OverflowError(
            f"the order d^c * n! has about {digits:.3g} digits for n={n}, c={c}, d={d},"
            f" more than ORDER_DIGIT_LIMIT = {ORDER_DIGIT_LIMIT}"
        )
    n_fact = math.factorial(params.n)
    order = d**params.c * n_fact
    if order <= CLOSURE_LIMIT:
        perms, _, label = _closure(params, d)
        size = len(perms) * label.count(0)
        if size != order:
            raise RuntimeError(f"closure reached {size} elements, expected {order}")
        return OrderCertificate(order, n_fact, "closure", size)
    steps = (c + 2) * (n + c)
    if steps > UNITS_STEP_LIMIT:
        raise ValueError(
            f"the units certificate takes (c + 2)(n + c) = {steps} steps for n={n}, c={c},"
            f" more than UNITS_STEP_LIMIT = {UNITS_STEP_LIMIT}"
        )
    for t in range(1, params.c + 1):
        unit = quotient_image(word(params, sigma(1, t), rho(1)), d)  # r1 is an involution
        expected_vec = tuple(1 if k == t - 1 else 0 for k in range(params.c))
        if unit.vec != expected_vec or not unit.perm.is_identity:
            raise RuntimeError(f"unit for colour {t} not realised in the image")
    for k, perm in [(1, adjacent(n, 1)), (n - 1, Perm(tuple(range(2, n + 1)) + (1,)))]:
        img = quotient_image(word(params, *map(rho, range(1, k + 1))), d)  # r1 .. r<k>
        if any(img.vec) or img.perm != perm:
            raise RuntimeError(f"virtual permutation of r1..r{k} not realised in the image")
    return OrderCertificate(order, n_fact, "units", None)
