"""Homomorphisms from UV(n, c) to symmetric groups, and abelian invariants.

A homomorphism to S_m is specified by its generator images
(``HomSpec``).  Every relation check reads ``words.relation_codes``,
the defining relations in generator codes, indexed by code; no
``Word`` is built.  ``verify_homspec`` checks every relation instance
of a ``HomSpec`` on image tuples and reports the first failure; a
``HomSpec`` may have any m.  ``enumerate_rows`` holds every image as
``bytes``, one byte per point, and multiplies by ``bytes.translate``
(``compose_images``), so it takes m up to 256.  It backtracks over
generator images in code order: involutions for the virtual letters,
then crossing images column by column, where the slide relations force
every image beyond the first row.  Each relation is checked once, when
its last generator is assigned; the involution and slide relations hold
by construction and are not checked at all, so a full assignment is
kept as it stands, its images joined into one row of bytes.
The search runs up to conjugation in S_m: under r1 only the first
involution of each conjugacy class is searched, and the rows found
there are conjugated onto each later involution of that class.
Budgets are node count plus wall clock, with the node count that of the
plain search over every involution; exceeding one raises, never
truncates silently.  ``enumerate_homs`` unpacks the rows into
``HomSpec``s; the CLI and the claims read the rows themselves
(``row_images``, ``row_is_abelian``).

The on/off family ``hom_from_bits`` is indexed by c+1 bits: bit t
sends every colour-t crossing to its adjacent transposition or to the
identity, and the last bit does the same for the virtual letters.
Such a map with non-abelian image exists exactly when the virtual bit
is on, which is what ``is_admissible`` computes (by verification, not
by reading the bit).

The abelianisation is free of rank c times order two: per-colour
crossing exponent sums plus the virtual letter count mod 2
(``abelianize``), with ``color_parity`` the mod-2 colour exponent.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, islice, permutations
from operator import itemgetter
from typing import Callable, Optional

from .perms import Perm, adjacent, identity
from .words import SIGMA, Codes, Params, SizeLimitError, Word, relation_codes, relation_count

Bits = tuple[int, ...]

# Most steps, R (m + 40), of verifying a homomorphism into S_m, R the
# relation count (``words.relation_count``): each relation instance is
# checked by products over m points, and its table entry costs about as
# much as 40 more (0.14 us a point, 5.6 us an entry, Python 3.11 on a
# 2-core x86-64 host).  So the limit takes about 1.5 s; at c = 1 and
# m = n it passes n = 159 and refuses n = 160.
VERIFY_STEP_LIMIT = 10_000_000
# Most colours c for which ``abelianize`` writes out its c exponent
# sums; ``ab`` and ``quot eval`` print one line per sum.
EXPONENT_LIMIT = 1_000_000


@dataclass(frozen=True)
class HomSpec:
    """Generator images of a candidate homomorphism into S_m.

    ``image_rho[i-1]`` is the image of r<i>; ``image_sigma[i-1][t-1]``
    the image of s<i>.<t>.
    """

    m: int
    image_rho: tuple[Perm, ...]
    image_sigma: tuple[tuple[Perm, ...], ...]

    def evaluate(self, w: Word) -> Perm:
        out = list(range(1, self.m + 1))
        for letter in w:
            if letter.kind != SIGMA:
                img = self.image_rho[letter.i - 1].images
            else:
                img = self.image_sigma[letter.i - 1][letter.t - 1].images
                if letter.sign < 0:
                    # out * img^-1 sends img(y) to out(y)
                    prev, out = out, [0] * self.m
                    for y, img_y in enumerate(img, start=1):
                        out[img_y - 1] = prev[y - 1]
                    continue
            out = [out[y - 1] for y in img]
        return Perm(tuple(out))

    def generator_images(self) -> list[Perm]:
        return list(self.image_rho) + [img for col in self.image_sigma for img in col]

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "rho": [list(p.images) for p in self.image_rho],
            "sigma": [[list(p.images) for p in col] for col in self.image_sigma],
        }

    @staticmethod
    def from_json_dict(data: object, params: Params) -> "HomSpec":
        if not isinstance(data, dict):
            raise ValueError(f"hom spec must be a JSON object, got {type(data).__name__}")
        missing = [key for key in ("m", "rho", "sigma") if key not in data]
        if missing:
            raise ValueError(f"hom spec is missing {', '.join(missing)}")
        m, columns = data["m"], data["sigma"]
        if type(m) is not int or not isinstance(columns, list):
            raise ValueError("hom spec needs an integer m and a list of sigma columns")
        rho_imgs = _perms_from_json(data["rho"])
        h = HomSpec(m, rho_imgs, tuple(_perms_from_json(col) for col in columns))
        _check_shape(h, params)
        return h


def _perms_from_json(items: object) -> tuple[Perm, ...]:
    if not isinstance(items, list) or not all(
        isinstance(imgs, list) and all(type(x) is int for x in imgs) for imgs in items
    ):
        raise ValueError(f"expected a list of permutations as integer lists, got {items!r}")
    return tuple(Perm(tuple(imgs)) for imgs in items)


def _check_degree(m: int) -> None:
    if m < 1:
        raise ValueError(f"target degree must be >= 1, got m={m}")


def _check_shape(h: HomSpec, params: Params) -> None:
    _check_degree(h.m)
    if len(h.image_rho) != params.n - 1:
        raise ValueError(f"expected {params.n - 1} virtual images, got {len(h.image_rho)}")
    if len(h.image_sigma) != params.n - 1 or any(len(col) != params.c for col in h.image_sigma):
        raise ValueError(f"expected {params.n - 1} x {params.c} crossing images")
    for p in h.generator_images():
        if p.n != h.m:
            raise ValueError(f"image degree {p.n} does not match m={h.m}")


# A permutation of 0..m-1 as its tuple of images: the kernel of the
# HomSpec paths, which take any m.  The search and its rows use bytes.
Image = tuple[int, ...]


def _mul(a: Image, b: Image) -> Image:
    """The product a*b, mapping x to a(b(x))."""
    return tuple(map(a.__getitem__, b))


def _product(codes: Codes, imgs: list[Image], one: Image) -> Image:
    factors = map(imgs.__getitem__, codes)
    return reduce(_mul, factors, next(factors, one))


def _code_images(h: HomSpec) -> list[Image]:
    """Generator images of h as 0-based tuples, indexed by generator code."""
    sigma_by_code = (p for col in zip(*h.image_sigma) for p in col)
    return [tuple(y - 1 for y in p.images) for p in (*h.image_rho, *sigma_by_code)]


def _homspec(m: int, perms: list[Perm], params: Params) -> HomSpec:
    """The HomSpec whose generator images, in ``generator_images`` order,
    are ``perms``."""
    sigma = iter(perms[params.n - 1 :])
    return HomSpec(m, tuple(perms[: params.n - 1]), tuple(zip(*[sigma] * params.c)))


def _check_verify_steps(params: Params, m: int) -> None:
    relations = relation_count(params)
    steps = relations * (m + 40)
    if steps > VERIFY_STEP_LIMIT:
        raise SizeLimitError(
            f"verifying a homomorphism into S_{m} takes {steps} steps,"
            f" R (m + 40) with R = {relations} relations for"
            f" n={params.n}, c={params.c}, more than VERIFY_STEP_LIMIT = {VERIFY_STEP_LIMIT}"
        )


def verify_homspec(h: HomSpec, params: Params) -> tuple[bool, Optional[str]]:
    """Check every defining relation instance; return (ok, first failing label).

    Refuses with a ``SizeLimitError``, a ``ValueError``, before the
    relation table is built, a check of more than ``VERIFY_STEP_LIMIT``
    steps.
    """
    _check_shape(h, params)
    _check_verify_steps(params, h.m)
    imgs, one = _code_images(h), tuple(range(h.m))
    for label, lhs, rhs in relation_codes(params):
        if _product(lhs, imgs, one) != _product(rhs, imgs, one):
            return False, label
    return True, None


def has_abelian_image(h: HomSpec) -> bool:
    return _commute(_code_images(h), _mul)


def check_bits(bits: Bits, params: Params) -> None:
    if len(bits) != params.c + 1:
        raise ValueError(f"expected {params.c + 1} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits}")


def hom_from_bits(bits: Bits, params: Params) -> HomSpec:
    """The on/off map to S_n: bit t switches colour t, the last bit the
    virtual letters; every switched-on letter maps to its adjacent
    transposition.

    The map is built to be verified, so one whose verification would
    take more than ``VERIFY_STEP_LIMIT`` steps is refused with a
    ``SizeLimitError`` before any of its (n - 1)(c + 1) images is built.
    """
    check_bits(bits, params)
    if params.n < 2:
        raise ValueError("on/off maps need n >= 2")
    _check_verify_steps(params, params.n)
    n, c = params.n, params.c
    one = identity(n)
    image_rho = tuple(adjacent(n, i) if bits[c] else one for i in range(1, n))
    image_sigma = tuple(
        tuple(adjacent(n, i) if bits[t - 1] else one for t in range(1, c + 1))
        for i in range(1, n)
    )
    return HomSpec(n, image_rho, image_sigma)


def is_admissible(bits: Bits, params: Params) -> bool:
    """Whether the on/off map is a homomorphism with non-abelian image.

    Requires n >= 3 (below that S_n has no non-abelian subgroup).
    Decided by relation verification plus an image commutation check.
    """
    if params.n < 3:
        raise ValueError(f"admissibility needs n >= 3, got n={params.n}")
    h = hom_from_bits(bits, params)
    ok, _ = verify_homspec(h, params)
    return ok and not has_abelian_image(h)


@dataclass(frozen=True)
class AbelImage:
    """Image in the abelianisation: colour exponent sums and virtual parity."""

    sigma_exponents: tuple[int, ...]
    rho_parity: int


def abelianize(w: Word) -> AbelImage:
    """The exponent sum of each colour and the virtual letter count mod 2.

    Refuses with a ``SizeLimitError``, before any sum is counted, more
    than ``EXPONENT_LIMIT`` colours.
    """
    if w.params.c > EXPONENT_LIMIT:
        raise SizeLimitError(
            f"the abelianisation has c = {w.params.c} exponent sums,"
            f" more than EXPONENT_LIMIT = {EXPONENT_LIMIT}"
        )
    sums = [0] * w.params.c
    rho_count = 0
    for letter in w:
        if letter.kind == SIGMA:
            sums[letter.t - 1] += letter.sign
        else:
            rho_count += 1
    return AbelImage(tuple(sums), rho_count % 2)


def color_parity(t: int, w: Word) -> int:
    """Exponent sum of colour t mod 2; kills all relations, and is 1 on
    any word with an odd number of colour-t crossings.  It counts those
    crossings alone, so it answers at any c."""
    if not 1 <= t <= w.params.c:
        raise ValueError(f"colour {t} out of range 1..{w.params.c}")
    return sum(1 for letter in w if letter.kind == SIGMA and letter.t == t) % 2


@dataclass
class SearchBudget:
    """Limits of one enumeration: nodes tried and seconds of wall clock.

    ``max_nodes`` bounds memory as well as time.  Each homomorphism kept
    is one row of fixed size, (n - 1)(c + 1)m bytes (``enumerate_rows``),
    and a search keeps at most one row per node it is charged, so it
    holds at most ``max_nodes`` rows.
    """

    max_nodes: int = 2_000_000
    max_seconds: float = 300.0


class BudgetExceededError(RuntimeError):
    """Raised when enumeration runs out of nodes or time; carries the
    homomorphisms found so far in ``partial``: sorted ``HomSpec``s from
    ``enumerate_homs``, rows in the order found from ``enumerate_rows``."""

    def __init__(self, message: str, partial: list):
        super().__init__(message)
        self.partial = partial


# A row holds each image point in one byte, so S_m fits for m up to 256.
ROW_DEGREE_LIMIT = 256


def row_images(row: bytes, m: int) -> list[bytes]:
    """The generator images of a row, each as its m 0-based images."""
    return [row[k : k + m] for k in range(0, len(row), m)]


def image_table(a: bytes) -> bytes:
    """The ``bytes.translate`` table of a byte image of m points: its
    images, then zeros up to the 256 entries a table has.  No point of
    an m-point image reaches the zeros."""
    return a + bytes(256 - len(a))


def compose_images(a: bytes, b: bytes) -> bytes:
    """The product a*b of two byte images of one degree, mapping x to
    a(b(x)): ``translate`` sends each point x of b to a[x]."""
    return b.translate(image_table(a))


def _byte_product(codes: Codes, tables: list[bytes], one: bytes) -> bytes:
    """The product of the images whose tables sit at ``codes``, with the
    codes in reverse: ``one`` is translated by the last factor first."""
    return reduce(bytes.translate, map(tables.__getitem__, codes), one)


def row_is_abelian(row: bytes, m: int) -> bool:
    """Whether the generator images of a row commute pairwise."""
    return _commute(row_images(row, m), compose_images)


def _commute(images: list, mul: Callable) -> bool:
    """Whether these images commute pairwise under the product ``mul``."""
    return all(mul(a, b) == mul(b, a) for a, b in combinations(set(images), 2))


def _conjugator(y: bytes) -> tuple[int, Image]:
    """(k, g) with g x_k g^-1 = y for the class representative x_k of y.

    g sends x_k's 2-cycles (2i 2i+1), and then its fixed points, in order
    onto y's 2-cycles (a b), a < b, and then y's fixed points.
    """
    pairs = [(a, b) for a, b in enumerate(y) if a < b]
    fixed = [a for a, b in enumerate(y) if a == b]
    return len(pairs), tuple([x for pair in pairs for x in pair] + fixed)


def enumerate_homs(
    params: Params, m: int, budget: Optional[SearchBudget] = None
) -> list[HomSpec]:
    """All homomorphisms UV(n, c) -> S_m, as sorted HomSpecs.

    The rows of ``enumerate_rows``, each unpacked into a ``HomSpec``;
    the HomSpecs share one ``Perm`` per distinct image.  The clock of
    the budget runs from this call on and is checked before each HomSpec
    is built, so a time budget error can carry the first HomSpecs of the
    sorted list.  A budget error of the search carries its rows sorted
    and unpacked.
    """
    if budget is None:
        budget = SearchBudget()
    started = time.monotonic()
    perm_of: dict[bytes, Perm] = {}

    def unpack(row: bytes) -> HomSpec:
        perms = []
        for image in row_images(row, m):
            p = perm_of.get(image)
            if p is None:
                p = perm_of[image] = Perm(tuple(x + 1 for x in image))
            perms.append(p)
        return _homspec(m, perms, params)

    try:
        rows = enumerate_rows(params, m, budget)
    except BudgetExceededError as exc:
        raise BudgetExceededError(str(exc), list(map(unpack, sorted(exc.partial)))) from None
    homs: list[HomSpec] = []
    for row in rows:
        if time.monotonic() - started > budget.max_seconds:
            raise BudgetExceededError(f"time budget {budget.max_seconds}s exceeded", homs)
        homs.append(unpack(row))
    return homs


def enumerate_rows(
    params: Params, m: int, budget: Optional[SearchBudget] = None
) -> list[bytes]:
    """All homomorphisms UV(n, c) -> S_m as rows, sorted bytewise.

    A row is the generator images in ``HomSpec.generator_images`` order,
    each as its m 0-based images, one byte per point: r<1> .. r<n-1>,
    then s<1>.<1> .. s<1>.<c>, s<2>.<1> and so on.  Every image has m
    bytes, so the bytewise order of rows is the order of ``sorted_homs``.
    An m above ``ROW_DEGREE_LIMIT`` does not fit a byte and is refused
    with a ``ValueError`` before any set-up.

    Backtracking over byte images in generator code order (see
    ``words.relation_codes``): each virtual image ranges over the
    involutions of S_m, each s<1>.<t> over all of S_m, and every later
    crossing of a column is forced by its slide relation to y s y^-1 with
    y = r<i> r<i+1>.  Each relation of the table is checked once, when
    the generator that completes it is assigned, except ``invol(r<i>)``
    and ``slide(s<i>.<t>)``, which hold by construction.  One node is
    spent per involution or S_m element tried; forced images are free.
    A full assignment has passed every relation on the way down, so it
    is kept as a row without a final ``verify_homspec``.  Each image
    assigned comes with its ``image_table``, so a product of k images is
    k translates of the identity, read right to left.

    The search runs up to conjugation in S_m.  Conjugating by g maps
    homomorphisms to homomorphisms, and the search subtree under
    r1 = x onto the one under r1 = g x g^-1, node for node.  r1 runs
    over the involutions in the plain search's order, one node each.
    The first involution y0 of each class k (its number of 2-cycles) has
    its subtree searched; its rows H, its node count sub and the g0 of
    ``_conjugator`` are recorded.  A later involution y of class k with
    conjugator g is charged sub nodes without a search, and gets
    c H c^-1 with c = g g0^-1, since c y0 c^-1 = y.  If sub nodes would
    pass ``max_nodes``, y's subtree is searched instead, and it runs out
    at the very node where the plain search over every involution would.
    So the node count, a node budget error's message and its partial
    list are exactly the plain search's.

    The clock is checked every 256 elements while S_m is built, once
    the relation table is built, every 256 nodes, before each full
    assignment is kept and before each conjugated row is built.  A
    negative ``max_nodes`` is refused before any set-up.  A NaN
    ``max_seconds`` would never run out, so it is refused; ``inf`` means
    no time limit, and a negative one is a clock already spent.

    The relation table is built whole before the first node, so the
    node budget does not bound it; and a search run to the end checks
    every relation on the trivial homomorphism, which is always found.
    So an enumeration costs at least one verification, and one of more
    than ``VERIFY_STEP_LIMIT`` steps is refused with a
    ``SizeLimitError`` before S_m or the table is built.
    """
    _check_degree(m)
    if m > ROW_DEGREE_LIMIT:
        raise ValueError(
            f"a row holds each image point in one byte, so m must be at most"
            f" {ROW_DEGREE_LIMIT}, got m={m}"
        )
    if budget is None:
        budget = SearchBudget()
    if budget.max_nodes < 0:
        raise ValueError(f"node budget must be >= 0, got max_nodes={budget.max_nodes}")
    if math.isnan(budget.max_seconds):
        raise ValueError("time budget must be a number of seconds or inf, got nan")
    _check_verify_steps(params, m)
    n = params.n
    if n == 1:
        return [b""]
    order = 1
    for k in range(2, m + 1):
        order *= k
        if order > budget.max_nodes:
            # all-identity virtual images admit every first crossing image,
            # so the search would try all m! of them: refuse before building S_m
            raise BudgetExceededError(f"node budget {budget.max_nodes} exceeded", [])
    found: list[bytes] = []
    nodes = 0
    started = time.monotonic()

    def check_time() -> None:
        if time.monotonic() - started > budget.max_seconds:
            raise BudgetExceededError(f"time budget {budget.max_seconds}s exceeded", found)

    def spend() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > budget.max_nodes:
            raise BudgetExceededError(f"node budget {budget.max_nodes} exceeded", found)
        if nodes % 256 == 0:
            check_time()

    # every element of S_m as a byte image, 256 at a time between clock checks
    points = permutations(range(m))
    sym: list[bytes] = []
    for _ in range(0, order, 256):
        check_time()
        sym += map(bytes, islice(points, 256))
    one = bytes(range(m))
    involutions = [p for p in sym if compose_images(p, p) == one]
    # each generator's image and its translate table, set together
    imgs = [one] * ((n - 1) * (params.c + 1))
    tables = [image_table(one)] * len(imgs)
    # the code of each generator, in the order of a row
    crossings = [(n - 1) * t + i for i in range(n - 1) for t in range(1, params.c + 1)]
    row_order = itemgetter(*range(n - 1), *crossings)
    completes: list[list[tuple[Codes, Codes]]] = [[] for _ in imgs]
    for label, lhs, rhs in relation_codes(params):
        # virtual images are involutions and forced crossings are slides by
        # construction; each side is kept reversed, as _byte_product reads it
        if not label.startswith(("invol(", "slide(")):
            completes[max(lhs + rhs)].append((lhs[::-1], rhs[::-1]))
    check_time()

    def holds(k: int) -> bool:
        return all(
            _byte_product(lhs, tables, one) == _byte_product(rhs, tables, one)
            for lhs, rhs in completes[k]
        )

    def assign(k: int) -> None:
        if k == len(imgs):
            check_time()
            found.append(b"".join(row_order(imgs)))
            return
        row = k % (n - 1)
        if k >= n - 1 and row:
            # slide: s<i+1>.<t> = y s<i>.<t> y^-1 with y = r<i> r<i+1>, i = row
            imgs[k] = image = _byte_product((row - 1, row, k - 1, row, row - 1), tables, one)
            tables[k] = image_table(image)
            if holds(k):
                assign(k + 1)
            return
        for g in (involutions if k < n - 1 else sym):
            spend()
            imgs[k], tables[k] = g, image_table(g)
            if holds(k):
                assign(k + 1)

    # per class k: the rows under its first involution, the node count of
    # that involution's subtree, and its g
    searched: dict[int, tuple[list[bytes], int, Image]] = {}
    for y in involutions:
        spend()
        k, g = _conjugator(y)
        if k in searched and nodes + searched[k][1] <= budget.max_nodes:
            first_rows, sub, g0 = searched[k]
            nodes += sub
            # c = g g0^-1 sends g0(z) to g(z), so c y0 c^-1 = y; and
            # c a c^-1 sends z to c(a(c^-1(z))): translate each point of
            # a row by c, then read each image's points at c^-1
            table = image_table(bytes(map(dict(zip(g0, g)).__getitem__, one)))
            c_inverse = tuple(map(dict(zip(g, g0)).__getitem__, one))
            gather = itemgetter(*[j + z for j in range(0, len(imgs) * m, m) for z in c_inverse])
            for row in first_rows:
                check_time()
                found.append(bytes(gather(row.translate(table))))
            continue
        # no relation is completed by r1 alone once invol(r1) is left out
        imgs[0], tables[0], before, start = y, image_table(y), nodes, len(found)
        assign(1)
        if k not in searched:
            searched[k] = (found[start:], nodes - before, g)
    found.sort()
    return found


def sorted_homs(homs: list[HomSpec]) -> list[HomSpec]:
    return sorted(homs, key=lambda h: [p.images for p in h.generator_images()])
