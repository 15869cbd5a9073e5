"""The word problem for UV(n, c) via its kernel-by-symmetric splitting.

Every word factors as (kernel part) * (virtual part): scanning left to
right while tracking the permutation p of the virtual prefix, a
crossing letter s<i>.<t>^e seen at prefix p equals the kernel letter
d<p(i)>.<p(i+1)>.<t>^e, and the virtual letters accumulate into
rho_word(p).  The kernel part lives in the right-angled Artin kernel,
where the strand-stack ``raag.normal_form`` decides equality; the
virtual part is just a permutation.  Two words are equal iff both
components agree, which makes the word problem exact and fast.

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
from .raag import KLetter, KWord, check_kletter, normal_form
from .words import SIGMA, Letter, Params, Word, rho, sigma


@dataclass(frozen=True)
class NormalForm:
    """Canonical pair: kernel normal form and the virtual permutation."""

    kword: KWord
    perm: Perm


def kletter_to_word(d: KLetter, params: Params) -> Word:
    """Expand a kernel letter into a word over the group generators."""
    check_kletter(d, params)
    lo, hi = min(d.i, d.j), max(d.i, d.j)
    conj: list[Letter] = [rho(k) for k in range(hi - 1, lo, -1)]
    if d.i > d.j:
        conj.append(rho(lo))
    letters = conj + [sigma(lo, d.t, d.sign)] + [l for l in reversed(conj)]
    return Word(params, tuple(letters))


def expand_kword(kw: KWord) -> Word:
    letters: list[Letter] = []
    for d in kw:
        letters.extend(kletter_to_word(d, kw.params).letters)
    return Word(kw.params, tuple(letters))


def permute_kletter(p: Perm, d: KLetter) -> KLetter:
    """Relabel both strands of a kernel letter through p, keeping colour and sign."""
    return KLetter(p(d.i), p(d.j), d.t, d.sign)


def to_normal_form(w: Word) -> NormalForm:
    """Factor w as (kernel normal form) * rho_word(virtual permutation)."""
    # images[k - 1] is p(k) for the virtual prefix p; r<i> swaps entries i, i+1.
    images = list(range(1, w.params.n + 1))
    emitted: list[KLetter] = []
    for letter in w:
        i = letter.i
        if letter.kind == SIGMA:
            emitted.append(KLetter(images[i - 1], images[i], letter.t, letter.sign))
        else:
            images[i - 1], images[i] = images[i], images[i - 1]
    return NormalForm(normal_form(KWord(w.params, tuple(emitted))), Perm(tuple(images)))


def is_trivial(w: Word) -> bool:
    nf = to_normal_form(w)
    return len(nf.kword) == 0 and nf.perm.is_identity


def are_equal(u: Word, v: Word) -> bool:
    if u.params != v.params:
        raise ValueError(f"cannot compare words with parameters {u.params} and {v.params}")
    return to_normal_form(u) == to_normal_form(v)


def is_pure(w: Word) -> bool:
    """Whether the word lies in the pure subgroup: its strand permutation
    (every letter acting as an adjacent transposition) is the identity."""
    return strand_permutation(w).is_identity


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v."""
    return u.inverse() * v.inverse() * u * v
