"""Homomorphisms from UV(n, c) to symmetric groups, and abelian invariants.

A homomorphism to S_m is specified by its generator images
(``HomSpec``); ``verify_homspec`` checks every defining relation
instance and reports the first failure.  The on/off family
``hom_from_bits`` is indexed by c+1 bits: bit t sends every colour-t
crossing to its adjacent transposition or to the identity, and the
last bit does the same for the virtual letters.  Such a map with
non-abelian image exists exactly when the virtual bit is on, which is
what ``is_admissible`` computes (by verification, not by reading the
bit).

``enumerate_homs`` searches all homomorphisms to S_m by backtracking
over generator images: virtual images first (they must be involutions
satisfying the braid and far-commutation relations), then crossing
images column by column, where the slide relations leave exactly one
candidate for each crossing image beyond the first row.  Budgets are
node count plus wall clock; exceeding one raises, never truncates
silently.

The abelianisation is free of rank c times order two: per-colour
crossing exponent sums plus the virtual letter count mod 2
(``abelianize``), with ``color_parity`` the mod-2 colour exponent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from .perms import Perm, adjacent, all_perms, compose, identity
from .words import SIGMA, Params, Word, defining_relations

Bits = tuple[int, ...]


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


def _check_shape(h: HomSpec, params: Params) -> None:
    if len(h.image_rho) != params.n - 1:
        raise ValueError(f"expected {params.n - 1} virtual images, got {len(h.image_rho)}")
    if len(h.image_sigma) != params.n - 1 or any(len(col) != params.c for col in h.image_sigma):
        raise ValueError(f"expected {params.n - 1} x {params.c} crossing images")
    for p in h.generator_images():
        if p.n != h.m:
            raise ValueError(f"image degree {p.n} does not match m={h.m}")


def verify_homspec(h: HomSpec, params: Params) -> tuple[bool, Optional[str]]:
    """Check every defining relation instance; return (ok, first failing label)."""
    _check_shape(h, params)
    for label, lhs, rhs in defining_relations(params):
        if h.evaluate(lhs) != h.evaluate(rhs):
            return False, label
    return True, None


def has_abelian_image(h: HomSpec) -> bool:
    images = h.generator_images()
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            if compose(images[a], images[b]) != compose(images[b], images[a]):
                return False
    return True


def check_bits(bits: Bits, params: Params) -> None:
    if len(bits) != params.c + 1:
        raise ValueError(f"expected {params.c + 1} bits, got {len(bits)}")
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bits must be 0 or 1, got {bits}")


def hom_from_bits(bits: Bits, params: Params) -> HomSpec:
    """The on/off map to S_n: bit t switches colour t, the last bit the
    virtual letters; every switched-on letter maps to its adjacent
    transposition."""
    check_bits(bits, params)
    if params.n < 2:
        raise ValueError("on/off maps need n >= 2")
    n, c = params.n, params.c
    one = identity(n)
    image_rho = tuple(adjacent(n, i) if bits[c] else one for i in range(1, n))
    image_sigma = tuple(
        tuple(adjacent(n, i) if bits[t - 1] else one for t in range(1, c + 1))
        for i in range(1, n)
    )
    return HomSpec(n, image_rho, image_sigma)


def eval_bits_hom(bits: Bits, w: Word) -> Perm:
    return hom_from_bits(bits, w.params).evaluate(w)


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
    any word with an odd number of colour-t crossings."""
    if not 1 <= t <= w.params.c:
        raise ValueError(f"colour {t} out of range 1..{w.params.c}")
    return abelianize(w).sigma_exponents[t - 1] % 2


@dataclass
class SearchBudget:
    max_nodes: int = 2_000_000
    max_seconds: float = 300.0


class BudgetExceededError(RuntimeError):
    """Raised when enumeration runs out of nodes or time; carries the
    homomorphisms found so far in ``partial``."""

    def __init__(self, message: str, partial: list[HomSpec]):
        super().__init__(message)
        self.partial = partial


def enumerate_homs(
    params: Params, m: int, budget: Optional[SearchBudget] = None
) -> list[HomSpec]:
    """All homomorphisms UV(n, c) -> S_m, as sorted HomSpecs.

    Backtracking with incremental pruning: virtual images are assigned
    left to right under the involution, braid and far-commutation
    constraints; then for each colour the first crossing image ranges
    over S_m and the slide relations force every later one, with the
    far commutations checked as columns complete.  Each full assignment
    is confirmed by ``verify_homspec`` before being kept.
    """
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
            ok, _ = verify_homspec(h, params)
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


def _hom_key(h: HomSpec):
    return (
        tuple(p.images for p in h.image_rho),
        tuple(tuple(p.images for p in col) for col in h.image_sigma),
    )


def sorted_homs(homs: list[HomSpec]) -> list[HomSpec]:
    return sorted(homs, key=_hom_key)
