"""The word problem for UV(n, c) via its kernel-by-symmetric splitting.

Every word factors as (kernel part) * (virtual part): scanning left to
right while tracking the permutation p of the virtual prefix, a
crossing letter s<i>.<t>^e seen at prefix p equals the kernel letter
d<p(i)>.<p(i+1)>.<t>^e, and the virtual letters accumulate into
rho_word(p).  The kernel part lives in the right-angled Artin kernel,
where the strand stacks of ``raag.stack_pieces`` decide triviality; the
virtual part is just a permutation.  Two words are equal iff both
components agree, which makes the word problem exact and fast.

Inside, the scan appends kernel letters as plain (i, j, t, sign) tuples
to one piece list and keeps p as an image list.  ``are_equal`` scans u
and then v's letters backwards with every crossing sign flipped (the
letters of v^-1, as r<i>^-1 = r<i>) into the same two lists: u = v iff
p ends as the identity and every strand stack of the pieces ends empty.
``is_trivial(w)`` asks whether w equals the empty word.  Neither runs
the canonical read-out or builds an object; only ``to_normal_form``
reads the piling out (``raag.read_out``) and wraps the result in
``KLetter``, ``KWord`` and ``Perm``.

``kletter_to_word`` expands a kernel letter back into generators:
d<i>.<i+1>.<t> is s<i>.<t> itself, and more distant pairs conjugate by
a descending run of virtual letters (passing through r<i> as well when
the pair is inverted).  ``permute_kletter`` is the conjugation action
of the virtual subgroup on kernel letters: conjugating by
rho_word(p) relabels both strands through p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .perms import Perm, strand_permutation
from .raag import KLetter, KWord, Piece, read_out, stack_pieces
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
    return expand_kword(KWord(params, (d,)))


def expand_kword(kw: KWord) -> Word:
    letters: list[Letter] = []
    for d in kw.letters:  # checked against kw.params, so its expansion is valid there
        letters += _expansion(d)
    return Word._checked(kw.params, tuple(letters))


def permute_kletter(p: Perm, d: KLetter) -> KLetter:
    """Relabel both strands of a kernel letter through p, keeping colour and sign."""
    return KLetter(p(d.i), p(d.j), d.t, d.sign)


def _scan(letters: Iterable[Letter], sign: int, images: list[int], pieces: list[Piece]) -> None:
    """Append the kernel letters of these letters to pieces, each crossing's
    sign times sign, and move the image list [0, p(1), .., p(n)] of the
    virtual prefix p by the virtual letters."""
    # r<i> swaps images[i], images[i+1]; s<i>.<t> emits the piece on them.
    for letter in letters:
        i = letter.i
        if letter.kind == SIGMA:
            pieces.append((images[i], images[i + 1], letter.t, sign * letter.sign))
        else:
            images[i], images[i + 1] = images[i + 1], images[i]


def to_normal_form(w: Word) -> NormalForm:
    """Factor w as (kernel normal form) * rho_word(virtual permutation)."""
    images, pieces = list(range(w.params.n + 1)), []
    _scan(w.letters, 1, images, pieces)
    out = read_out(stack_pieces(pieces))
    kword = KWord._checked(w.params, tuple([KLetter(*piece) for piece in out]))
    return NormalForm(kword, Perm(tuple(images[1:])))


def is_trivial(w: Word) -> bool:
    """Whether w is the identity: its virtual permutation is, and its
    kernel letters stack down to nothing.

    >>> from uvbraid import Params, parse_word
    >>> p = Params(3, 1)
    >>> is_trivial(parse_word("r1 r2 s1.1 r2 r1 S2.1", p))
    True
    >>> is_trivial(parse_word("s1.1 r1 S1.1 r1", p))
    False
    >>> is_trivial(parse_word("r1 r2 r1 r2 r1 r2", p))
    True
    """
    return are_equal(w, Word._checked(w.params, ()))


def are_equal(u: Word, v: Word) -> bool:
    """Whether u and v are the same element of UV(n, c).

    u = v iff u v^-1 is trivial: one scan of u, then of v's letters in
    reverse with crossing signs flipped, fills one image list and one
    piece list.  The virtual permutation of u v^-1 must be the identity,
    and only then are the pieces stacked, in one pass with no read-out.

    >>> from uvbraid import Params, parse_word
    >>> p = Params(3, 1)
    >>> are_equal(parse_word("r1 s2.1 r1", p), parse_word("r2 s1.1 r2", p))
    True
    >>> are_equal(parse_word("r1 s1.1", p), parse_word("s1.1 r1", p))
    False
    """
    if u.params != v.params:
        raise ValueError(f"cannot compare words with parameters {u.params} and {v.params}")
    images, pieces = list(range(u.params.n + 1)), []
    _scan(u.letters, 1, images, pieces)
    _scan(reversed(v.letters), -1, images, pieces)  # v^-1, as r<i>^-1 = r<i>
    return images == list(range(u.params.n + 1)) and not any(stack_pieces(pieces).values())


def is_pure(w: Word) -> bool:
    """Whether the word lies in the pure subgroup: its strand permutation
    (every letter acting as an adjacent transposition) is the identity."""
    return strand_permutation(w).is_identity


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v."""
    return u.inverse() * v.inverse() * u * v
