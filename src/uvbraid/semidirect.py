"""The word problem for UV(n, c) via its kernel-by-symmetric splitting.

Every word factors as (kernel part) * (virtual part): scanning left to
right while tracking the permutation p of the virtual prefix, a
crossing letter s<i>.<t>^e seen at prefix p equals the kernel letter
d<p(i)>.<p(i+1)>.<t>^e, and the virtual letters accumulate into
rho_word(p).  The kernel part lives in the right-angled Artin kernel,
where the strand stacks of ``raag.reduce_pieces`` decide equality; the
virtual part is just a permutation.  Two words are equal iff both
components agree, which makes the word problem exact and fast.

Inside, the scan emits kernel letters as plain (i, j, t, sign) tuples
and keeps p as an image list; ``are_equal`` and ``is_trivial`` compare
the reduced tuples and lists directly.  Objects are built only at the
boundary: ``to_normal_form`` wraps the reduced output in ``KLetter``,
``KWord`` and ``Perm``.

``kletter_to_word`` expands a kernel letter back into generators:
d<i>.<i+1>.<t> is s<i>.<t> itself, and more distant pairs conjugate by
a descending run of virtual letters (passing through r<i> as well when
the pair is inverted).  ``permute_kletter`` is the conjugation action
of the virtual subgroup on kernel letters: conjugating by
rho_word(p) relabels both strands through p.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perms import Perm, strand_permutation
from .raag import KLetter, KWord, Piece, check_kletter, reduce_pieces
from .words import SIGMA, Letter, Params, Word, rho, sigma


@dataclass(frozen=True)
class NormalForm:
    """Canonical pair: kernel normal form and the virtual permutation."""

    kword: KWord
    perm: Perm


def _expansion(d: KLetter) -> list[Letter]:
    lo, hi = min(d.i, d.j), max(d.i, d.j)
    conj: list[Letter] = [rho(k) for k in range(hi - 1, lo, -1)]
    if d.i > d.j:
        conj.append(rho(lo))
    return conj + [sigma(lo, d.t, d.sign)] + conj[::-1]


def kletter_to_word(d: KLetter, params: Params) -> Word:
    """Expand a kernel letter into a word over the group generators."""
    check_kletter(d, params)
    return Word(params, tuple(_expansion(d)))


def expand_kword(kw: KWord) -> Word:
    letters: list[Letter] = []
    for d in kw.letters:  # checked against kw.params when kw was built
        letters += _expansion(d)
    return Word(kw.params, tuple(letters))


def permute_kletter(p: Perm, d: KLetter) -> KLetter:
    """Relabel both strands of a kernel letter through p, keeping colour and sign."""
    return KLetter(p(d.i), p(d.j), d.t, d.sign)


def _reduce(w: Word) -> tuple[list[Piece], list[int]]:
    """The kernel normal form of w as pieces, and its virtual permutation p
    as the image list [0, p(1), .., p(n)]."""
    # r<i> swaps images[i], images[i+1]; s<i>.<t> emits the piece on them.
    images = list(range(w.params.n + 1))
    emitted: list[Piece] = []
    for letter in w.letters:
        i = letter.i
        if letter.kind == SIGMA:
            emitted.append((images[i], images[i + 1], letter.t, letter.sign))
        else:
            images[i], images[i + 1] = images[i + 1], images[i]
    return reduce_pieces(emitted), images


def to_normal_form(w: Word) -> NormalForm:
    """Factor w as (kernel normal form) * rho_word(virtual permutation)."""
    pieces, images = _reduce(w)
    kword = KWord(w.params, tuple([KLetter(*piece) for piece in pieces]))
    return NormalForm(kword, Perm(tuple(images[1:])))


def is_trivial(w: Word) -> bool:
    pieces, images = _reduce(w)
    return not pieces and images == list(range(w.params.n + 1))


def are_equal(u: Word, v: Word) -> bool:
    if u.params != v.params:
        raise ValueError(f"cannot compare words with parameters {u.params} and {v.params}")
    return _reduce(u) == _reduce(v)


def is_pure(w: Word) -> bool:
    """Whether the word lies in the pure subgroup: its strand permutation
    (every letter acting as an adjacent transposition) is the identity."""
    return strand_permutation(w).is_identity


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v."""
    return u.inverse() * v.inverse() * u * v
