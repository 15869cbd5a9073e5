"""The word problem for UV(n, c) via its kernel-by-symmetric splitting.

Every word factors as (kernel part) * (virtual part): scanning left to
right while tracking the permutation p of the virtual prefix, a
crossing letter s<i>.<t>^e seen at prefix p equals the kernel letter
d<p(i)>.<p(i+1)>.<t>^e, and the virtual letters accumulate into
rho_word(p).  The kernel part lives in the right-angled Artin kernel
(``raag``), where a reduced piling of strand stacks decides
triviality; the virtual part is just a permutation.  Two words are
equal iff both components agree, which makes the word problem exact
and fast.

One loop, ``_scan``, does both jobs letter by letter: it keeps p as an
image list and stacks each kernel letter as a plain (i, j, t, sign)
piece the moment its crossing is read, cancelling it against the piece
on top of both its strands or pushing it onto both, as
``raag.stack_pieces`` does for a list of pieces.  No piece list is
built.  The stacks sit in an array indexed by strand, [None] * (n + 1),
and a strand's stack is made at its first push, so a short word at a
huge n allocates one pointer per strand and a stack only per strand it
touches.

``are_equal`` scans u and then v's letters backwards with every
crossing sign flipped (the letters of v^-1, as r<i>^-1 = r<i>) into
the same image list and stack array: u = v iff p ends as the identity
and every stack ends empty.  ``is_trivial(w)`` asks whether w equals
the empty word.  Neither runs the canonical read-out or builds an
object; only ``to_normal_form`` hands the non-empty stacks to
``raag.read_out`` and wraps the result in ``KLetter``, ``KWord`` and
``Perm``.

``kletter_to_word`` expands a kernel letter back into generators:
d<i>.<i+1>.<t> is s<i>.<t> itself, and more distant pairs conjugate by
a descending run of virtual letters (passing through r<i> as well when
the pair is inverted).  ``permute_kletter`` is the conjugation action
of the virtual subgroup on kernel letters: conjugating by
rho_word(p) relabels both strands through p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .perms import Perm, strand_permutation
from .raag import KLetter, KWord, Piece, Strands, read_out
from .words import Letter, Params, Word, rho, sigma


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


# Strand -> its stack of pieces, bottom first; None until its first push.
StackArray = list[Optional[list[Piece]]]


def _scan(letters: Iterable[Letter], sign: int, images: list[int], strands: StackArray) -> None:
    """Stack the kernel letters of these letters, each crossing's sign
    times sign, onto the strand stacks, and move the image list
    [0, p(1), .., p(n)] of the virtual prefix p by the virtual letters.

    r<i> swaps images[i], images[i+1]; s<i>.<t>^e is the piece
    (a, b, t, e * sign) on the strands a, b found there.  It cancels the
    piece on top of both stacks when that piece is its inverse, and is
    otherwise pushed onto both, exactly as in ``raag.stack_pieces``, so
    the stacks hold the reduced piling of the kernel letters so far."""
    for letter in letters:
        i = letter.i
        t = letter.t
        if t:  # a crossing: virtual letters have colour 0, crossings 1..c
            a = images[i]
            b = images[i + 1]
            s = sign * letter.sign
            on_a = strands[a]
            on_b = strands[b]
            if on_a and on_b:
                top = on_a[-1]
                # A top piece shared by strands a and b lies on {a, b}, so
                # equal source strands mean equal target strands.
                if top is on_b[-1] and top[0] == a and top[2] == t and top[3] == -s:
                    on_a.pop()
                    on_b.pop()
                    continue
            piece = (a, b, t, s)
            if on_a is None:
                strands[a] = [piece]
            else:
                on_a.append(piece)
            if on_b is None:
                strands[b] = [piece]
            else:
                on_b.append(piece)
        else:
            images[i], images[i + 1] = images[i + 1], images[i]


def to_normal_form(w: Word) -> NormalForm:
    """Factor w as (kernel normal form) * rho_word(virtual permutation)."""
    n = w.params.n
    images, strands = list(range(n + 1)), [None] * (n + 1)
    _scan(w.letters, 1, images, strands)
    piling: Strands = {}
    for stack in filter(None, strands):  # the non-empty stacks, at C speed
        # its bottom piece lies on its strand, one of the piece's two
        i, j = stack[0][:2]
        piling[i if strands[i] is stack else j] = stack
    out = read_out(piling)
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
    reverse with crossing signs flipped, moves one image list and stacks
    the kernel letters as they come.  The virtual permutation of u v^-1
    must be the identity and every strand stack empty; nothing is read
    out.

    >>> from uvbraid import Params, parse_word
    >>> p = Params(3, 1)
    >>> are_equal(parse_word("r1 s2.1 r1", p), parse_word("r2 s1.1 r2", p))
    True
    >>> are_equal(parse_word("r1 s1.1", p), parse_word("s1.1 r1", p))
    False
    """
    if u.params != v.params:
        raise ValueError(f"cannot compare words with parameters {u.params} and {v.params}")
    n = u.params.n
    images, strands = list(range(n + 1)), [None] * (n + 1)
    _scan(u.letters, 1, images, strands)
    _scan(reversed(v.letters), -1, images, strands)  # v^-1, as r<i>^-1 = r<i>
    return images == list(range(n + 1)) and not any(strands)


def is_pure(w: Word) -> bool:
    """Whether the word lies in the pure subgroup: its strand permutation
    (every letter acting as an adjacent transposition) is the identity."""
    return strand_permutation(w).is_identity


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v."""
    return u.inverse() * v.inverse() * u * v
