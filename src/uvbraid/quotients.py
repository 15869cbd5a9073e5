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
(small groups; a breadth-first walk over integer element ids, each
permutation's moves computed once) or by exhibiting the vector units,
(1 2) and (1 2 .. n) inside the image (any size, linear in n).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .homs import abelianize
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


def _closure(params: Params, d: int) -> list[tuple[int, tuple[int, ...]]]:
    """The elements reached from the identity by right multiplication with
    the images of r1..r<n-1> and s1.1..s1.c, breadth first, as (vector
    code, image tuple).

    These images generate (Z/d)^c x S_n: the r<i> give S_n, and
    s1.t r1 is the unit (unit_t, 1).  The other crossings' images are
    products of these, so walking them too reaches nothing new.
    The code is the vector's index in ``itertools.product(range(d), repeat=c)``.
    A generator acts by a shift table over the codes and an ``itemgetter``
    composing with its transposition.  The walk runs on integer ids
    ``pid * d^c + code``: a permutation gets its pid when it is first met,
    and its moves (the successor pid and the shift table per generator)
    are computed once, when its first element leaves the queue.
    """
    vecs = list(itertools.product(range(d), repeat=params.c))
    size = len(vecs)
    index = {vec: k for k, vec in enumerate(vecs)}
    letters = [rho(i) for i in range(1, params.n)] + [sigma(1, t) for t in range(1, params.c + 1)]
    gens = []
    for letter in letters:
        img = _letter_image(letter, params, d)
        shift = tuple(index[tuple((x + y) % d for x, y in zip(vec, img.vec))] for vec in vecs)
        gens.append((shift, itemgetter(*(y - 1 for y in img.perm.images))))
    perms = [identity(params.n).images]  # pid -> image tuple
    pid_of = {perms[0]: 0}
    moves: list[list[tuple[int, tuple[int, ...]]]] = []  # pid -> (successor id base, shift)
    reached = [0]
    seen = {0}
    for elem in reached:  # the list grows while it is walked
        pid, code = divmod(elem, size)
        if pid == len(moves):  # pids leave the queue in the order they were met
            row = []
            for shift, swap in gens:
                perm = swap(perms[pid])
                if perm not in pid_of:
                    pid_of[perm] = len(perms)
                    perms.append(perm)
                row.append((pid_of[perm] * size, shift))
            moves.append(row)
        for base, shift in moves[pid]:
            prod = base + shift[code]
            if prod not in seen:
                seen.add(prod)
                reached.append(prod)
    return [(elem % size, perms[elem // size]) for elem in reached]


@dataclass(frozen=True)
class OrderCertificate:
    order: int
    n_factorial: int
    method: str  # "closure" or "units"
    closure_size: Optional[int]


def quotient_order(params: Params, d: int) -> OrderCertificate:
    """Order d^c * n! of the quotient, with a surjectivity certificate.

    Up to ``CLOSURE_LIMIT`` elements the certificate is the closure of
    the images of r1..r<n-1> and s1.1..s1.c under multiplication (a
    finite submonoid is a subgroup, so reaching every element proves
    that these n-1+c images alone generate the group).  Beyond
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
        size = len(_closure(params, d))
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
