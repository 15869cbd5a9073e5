"""The word problem for UV(n, c) via its kernel-by-symmetric splitting.

Every word factors as (kernel part) * (virtual part): scanning left to
right while tracking the permutation p of the virtual prefix, a
crossing letter s<i>.<t>^e seen at prefix p equals the kernel letter
d<p(i)>.<p(i+1)>.<t>^e, and the virtual letters accumulate into
rho_word(p).  The kernel part lives in the right-angled Artin kernel,
where the strand stacks of ``raag.stack_pieces`` decide triviality; the
virtual part is just a permutation.  Two words are equal iff both
components agree, which makes the word problem exact and fast.

Inside, the scan emits kernel letters as plain (i, j, t, sign) tuples
and keeps p as an image list.  ``are_equal`` compares the two image
lists and, if they agree, stacks u's pieces followed by v's, inverted
and in reverse order: u = v iff every strand stack ends empty.
``is_trivial`` does the same for one word.  Neither runs the canonical
read-out or builds an object; only ``to_normal_form`` reads the piling
out (``raag.read_out``) and wraps the result in ``KLetter``, ``KWord``
and ``Perm``.

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
from .raag import KLetter, KWord, Piece, check_kletter, read_out, stack_pieces
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


def _scan(w: Word) -> tuple[list[Piece], list[int]]:
    """The kernel letters of w as pieces, in order, and its virtual
    permutation p as the image list [0, p(1), .., p(n)]."""
    # r<i> swaps images[i], images[i+1]; s<i>.<t> emits the piece on them.
    images = list(range(w.params.n + 1))
    emitted: list[Piece] = []
    for letter in w.letters:
        i = letter.i
        if letter.kind == SIGMA:
            emitted.append((images[i], images[i + 1], letter.t, letter.sign))
        else:
            images[i], images[i + 1] = images[i + 1], images[i]
    return emitted, images


def _cancels(pieces: list[Piece]) -> bool:
    """Whether these pieces make a trivial kernel word: every strand stack
    of their reduced piling ends empty."""
    return not any(stack_pieces(pieces).values())


def to_normal_form(w: Word) -> NormalForm:
    """Factor w as (kernel normal form) * rho_word(virtual permutation)."""
    pieces, images = _scan(w)
    out = read_out(stack_pieces(pieces))
    kword = KWord(w.params, tuple([KLetter(*piece) for piece in out]))
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
    pieces, images = _scan(w)
    return images == list(range(w.params.n + 1)) and _cancels(pieces)


def are_equal(u: Word, v: Word) -> bool:
    """Whether u and v are the same element of UV(n, c).

    With u = K_u rho_word(p) and v = K_v rho_word(q), u = v iff p = q and
    K_u K_v^-1 is trivial: v's pieces follow u's, inverted and in
    reverse order, through one stacking pass with no read-out.

    >>> from uvbraid import Params, parse_word
    >>> p = Params(3, 1)
    >>> are_equal(parse_word("r1 s2.1 r1", p), parse_word("r2 s1.1 r2", p))
    True
    >>> are_equal(parse_word("r1 s1.1", p), parse_word("s1.1 r1", p))
    False
    """
    if u.params != v.params:
        raise ValueError(f"cannot compare words with parameters {u.params} and {v.params}")
    u_pieces, u_images = _scan(u)
    v_pieces, v_images = _scan(v)
    if u_images != v_images:
        return False
    return _cancels(u_pieces + [(i, j, t, -sign) for i, j, t, sign in reversed(v_pieces)])


def is_pure(w: Word) -> bool:
    """Whether the word lies in the pure subgroup: its strand permutation
    (every letter acting as an adjacent transposition) is the identity."""
    return strand_permutation(w).is_identity


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v."""
    return u.inverse() * v.inverse() * u * v
