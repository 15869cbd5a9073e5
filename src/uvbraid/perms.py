"""Permutations of strand positions and the two projections to S_n.

Permutations are stored as 1-based image tuples: ``p.images[k-1]`` is the
image of point k.  The product a*b is ordinary composition, mapping x to
a(b(x)), and a word's permutation is the left to right fold of its
letters under this product.

``strand_permutation`` sends every letter of a word to the adjacent
transposition of its index; ``virtual_permutation`` does the same but
ignores crossing letters, so it only tracks the virtual ones.  The
latter is split by ``rho_word``, which writes any permutation as a
reduced word in the virtual generators.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .words import Params, Word, rho


@dataclass(frozen=True, slots=True)
class Perm:
    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0:
            raise ValueError("permutations act on at least one point")
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for x, y in enumerate(self.images, start=1):
            inv[y - 1] = x
        return Perm(tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.images, start=1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles, each starting at its least point."""
        seen: set[int] = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self(start)
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self(x)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        """Cycle notation, "()" for the identity.

        >>> Perm((2, 1, 3)).cycle_string()
        '(1 2)'
        """
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycles)


def identity(n: int) -> Perm:
    return Perm(tuple(range(1, n + 1)))


def transposition(n: int, a: int, b: int) -> Perm:
    if not (1 <= a <= n and 1 <= b <= n and a != b):
        raise ValueError(f"invalid transposition ({a} {b}) on 1..{n}")
    imgs = list(range(1, n + 1))
    imgs[a - 1], imgs[b - 1] = b, a
    return Perm(tuple(imgs))


def adjacent(n: int, i: int) -> Perm:
    """The adjacent transposition (i i+1) in S_n."""
    return transposition(n, i, i + 1)


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order of image tuples."""
    for images in itertools.permutations(range(1, n + 1)):
        yield Perm(images)


def _adjacent_product(n: int, indices: Iterable[int]) -> Perm:
    """The product (i1 i1+1)(i2 i2+1)... of adjacent transpositions.

    Multiplying p on the right by (i i+1) swaps p(i) and p(i+1), so the
    fold swaps two entries of one image list per index.
    """
    images = list(range(1, n + 1))
    for i in indices:
        images[i - 1], images[i] = images[i], images[i - 1]
    return Perm(tuple(images))


def strand_permutation(w: Word) -> Perm:
    """Image of a word when every letter acts as its adjacent transposition."""
    return _adjacent_product(w.params.n, (letter.i for letter in w))


def virtual_permutation(w: Word) -> Perm:
    """Image of a word when only virtual letters act; crossings map to 1.

    >>> virtual_permutation(Word(Params(3, 1), (rho(1), rho(1)))).is_identity
    True
    """
    return _adjacent_product(w.params.n, (letter.i for letter in w if letter.is_rho))


def rho_word(p: Perm, params: Params) -> Word:
    """A reduced virtual word whose virtual permutation is p.

    Built by insertion sorting the image tuple, each adjacent swap of an
    inversion recorded once, so the word length is the inversion count of
    p.  This is the canonical section of ``virtual_permutation`` on the
    subgroup of virtual words.
    """
    if p.n != params.n:
        raise ValueError(f"permutation of 1..{p.n} does not match n={params.n}")
    imgs = list(p.images)
    swaps: list[int] = []
    for x in range(1, p.n):
        j = x
        while j and imgs[j - 1] > imgs[j]:
            imgs[j - 1], imgs[j] = imgs[j], imgs[j - 1]
            swaps.append(j)
            j -= 1
    return Word._checked(params, tuple([rho(x) for x in reversed(swaps)]))
