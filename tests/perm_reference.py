"""Permutation product for the tests: the reference fold against which the
engines' tuple arithmetic is checked.  Not collected by pytest; test
modules import it from this directory."""

from uvbraid import Perm


def compose(a: Perm, b: Perm) -> Perm:
    """The product a*b, mapping x to a(b(x))."""
    if a.n != b.n:
        raise ValueError(f"cannot compose permutations of 1..{a.n} and 1..{b.n}")
    return Perm(tuple(a.images[y - 1] for y in b.images))
