"""The right-angled Artin kernel of the virtual projection.

The kernel of ``virtual_permutation`` is generated by the letters
d<i>.<j>.<t> with i != j: the crossing s<i>.<t> conjugated by a virtual
word taking the pair (i, i+1) to (i, j).  Two such letters commute
exactly when their strand pairs {i, j} are disjoint, regardless of
colour, and these commutations are a complete set of relations.  The
kernel is therefore the right-angled Artin group on the commutation
graph with n(n-1)c vertices (i, j, t) and edges between colour-blind
disjoint pairs.

So a kernel word is a heap of pieces, each lying on its two strands,
kept as one stack of pieces per strand.  Stacking cancels a letter
when both its strand stacks have on top the same piece, holding the
inverse letter, and pushes it onto both otherwise; the piling it
leaves is reduced, so it is empty exactly when the word is trivial,
and the word problem needs nothing more.  The read-out, ``read_out``,
takes back the smallest piece (in lexicographic (i, j, t) order) at
the bottom of both its strands, again and again, which yields a
canonical fully-cancelled word: two words are equal in the group iff
their normal forms are equal letter for letter.  Pieces are plain
(i, j, t, sign) tuples.

Two loops stack.  ``stack_pieces`` stacks a sequence of pieces into a
dict with a stack only for each strand the pieces touch, so its cost
follows the word length and not n; ``normal_form`` runs it and then
``read_out`` for a validated ``KWord``.  The word problem of UV(n, c)
does not build pieces first: ``semidirect._scan`` stacks each crossing
as it reads it, into a per-strand array filled lazily, and hands the
non-empty stacks to ``read_out`` only for a normal form.

The certificates read off this graph check their witnesses with
``commute``, the colour-blind disjointness of strand pairs, and never
build it: the clique number floor(n/2) with a matching certificate (for
cohomological dimension), an induced path (Howson property), a pair of
joined non-edges spanning F2 x F2 (an obstruction to subgroup
separability), and the absence of dominating vertices (central
generators).  Nothing here builds the graph: ``to_dot`` lists each
vertex's later neighbours straight from the strands.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .words import LetterSequence, Params

Vertex = tuple[int, int, int]
# A kernel letter d<i>.<j>.<t>^sign as the plain tuple (i, j, t, sign).
Piece = tuple[int, int, int, int]
# Strand -> its stack of pieces, bottom first, for the strands a word touches.
Strands = dict[int, list[Piece]]


@dataclass(frozen=True, slots=True)
class KLetter:
    """Signed kernel generator d<i>.<j>.<t>: source strand, target strand, colour."""

    i: int
    j: int
    t: int
    sign: int = 1

    def __post_init__(self) -> None:
        if self.i < 1 or self.j < 1:
            raise ValueError(f"strand indices are 1-based, got ({self.i},{self.j})")
        if self.i == self.j:
            raise ValueError(f"kernel letter needs distinct strands, got ({self.i},{self.j})")
        if self.t < 1:
            raise ValueError(f"colour indices are 1-based, got {self.t}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @property
    def vertex(self) -> Vertex:
        return (self.i, self.j, self.t)

    def inverse(self) -> "KLetter":
        return KLetter(self.i, self.j, self.t, -self.sign)

    def token(self) -> str:
        head = "d" if self.sign > 0 else "D"
        return f"{head}{self.i}.{self.j}.{self.t}"


@dataclass(frozen=True)
class KWord(LetterSequence):
    """A word in the kernel generators, tied to fixed parameters."""

    def __post_init__(self) -> None:
        n, c = self.params.n, self.params.c
        for letter in self.letters:
            if not (1 <= letter.i <= n and 1 <= letter.j <= n):
                raise ValueError(f"strand pair ({letter.i},{letter.j}) out of range 1..{n}")
            if not 1 <= letter.t <= c:
                raise ValueError(f"colour {letter.t} out of range 1..{c}")


def vertices(params: Params) -> Iterator[Vertex]:
    """The kernel letters (i, j, t), i != j, in lexicographic order."""
    n, c = params.n, params.c
    return (
        (i, j, t)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
        if i != j
        for t in range(1, c + 1)
    )


def stack_pieces(pieces: Iterable[Piece]) -> Strands:
    """The reduced piling of a kernel word given as (i, j, t, sign)
    pieces, as a stack per strand the word touches: the stacker of
    ``normal_form`` and of the tests' two-scan word problem reference.
    Its dict is keyed by strand, so no strand costs anything until a
    piece lies on it.

    A letter whose two strand stacks have the same piece on top, holding
    its inverse, cancels that piece; otherwise it is pushed as a new
    piece onto both stacks.  A piece on top of both strands i and j lies
    on {i, j}, and no other piece on {i, j} can be there too, so the
    tuple object itself names the piece.

    The piling this leaves is reduced: a piece is pushed only when it
    cannot cancel the piece on top of both its strands, and a
    cancellation pops a piece with nothing above it, which brings no
    two pieces together.  So no piece lies directly on its inverse
    along both strands, and a reduced piling is empty exactly when the
    word is trivial in the right-angled Artin group (Crisp-Godelle-Wiest
    2009): the word is trivial iff every stack ends empty.
    """
    strands: defaultdict[int, list[Piece]] = defaultdict(list)
    for piece in pieces:
        i, j, t, sign = piece
        on_i, on_j = strands[i], strands[j]
        if on_i and on_j:
            top = on_i[-1]
            # A top piece shared by strands i and j lies on {i, j}, so
            # equal i means equal j.
            if top is on_j[-1] and top[0] == i and top[2] == t and top[3] == -sign:
                on_i.pop()
                on_j.pop()
                continue
        on_i.append(piece)
        on_j.append(piece)
    return strands


def read_out(strands: Strands) -> list[Piece]:
    """The canonical read-out of a reduced piling, emptying its stacks.

    Repeatedly emit the lexicographically smallest piece at the bottom
    of both its strands.  The result is fully cancelled and every run
    of pairwise-commuting letters appears in (i, j, t) order.  As on
    top, a piece at the bottom of both strands i and j is named by the
    tuple object itself.  Pieces ready to be read out share no strand,
    so their source strands i differ and order them as (i, j, t) does:
    the heap holds source strands, each ready piece being the bottom of
    its own.
    """
    for stack in strands.values():
        stack.reverse()  # bottom piece last
    ready = [
        s for s, stack in strands.items()
        if stack and (bottom := stack[-1])[0] == s and strands[bottom[1]][-1] is bottom
    ]
    heapq.heapify(ready)
    out: list[Piece] = []
    while ready:
        on_i = strands[heapq.heappop(ready)]
        piece = on_i.pop()
        out.append(piece)
        on_j = strands[piece[1]]
        on_j.pop()
        # The new bottoms of strands i and j (one piece if it lies on both).
        p = on_i[-1] if on_i else None
        if p is not None and strands[p[0]][-1] is p is strands[p[1]][-1]:
            heapq.heappush(ready, p[0])
        if on_j and (q := on_j[-1]) is not p and strands[q[0]][-1] is q is strands[q[1]][-1]:
            heapq.heappush(ready, q[0])
    return out


def normal_form(w: KWord) -> KWord:
    """Canonical representative of w in the right-angled Artin kernel
    (see ``stack_pieces`` and ``read_out``)."""
    out = read_out(stack_pieces([(d.i, d.j, d.t, d.sign) for d in w.letters]))
    return KWord._checked(w.params, tuple([KLetter(*piece) for piece in out]))


def commute(u: Vertex, v: Vertex) -> bool:
    """Whether u and v are adjacent in the commutation graph: their strand
    pairs are disjoint, whatever their colours."""
    return not {u[0], u[1]} & {v[0], v[1]}


def max_clique(params: Params) -> tuple[Vertex, ...]:
    """A maximum clique: the matching (1,2,1), (3,4,1), ..., (2k-1,2k,1), k = floor(n/2).

    Adjacent letters have disjoint strand pairs, so a clique is a set of
    pairwise strand-disjoint pairs; each takes up two of the n strands, so
    by pigeonhole a clique has at most floor(n/2) members, and the matching
    has that many.  The witness is checked to use each strand at most once,
    which is ``commute`` on every pair of it.
    """
    clique = tuple((i, i + 1, 1) for i in range(1, params.n, 2))
    strands = [s for i, j, _ in clique for s in (i, j)]
    if len(set(strands)) != len(strands):
        raise RuntimeError("matching witness is not a clique")
    return clique


def clique_number(params: Params) -> int:
    """floor(n/2), the size of ``max_clique``'s matching, by its pigeonhole
    bound, without building the matching."""
    return params.n // 2


P3Witness = tuple[Vertex, Vertex, Vertex]


def is_p3_free(params: Params) -> tuple[bool, Optional[P3Witness]]:
    """Whether no induced path on three vertices exists, with a witness if not.

    A witness (v1, v2, v3) has v2 adjacent to both ends, which are not
    adjacent to each other.  For n <= 3 any two strand pairs meet, so the
    graph is edgeless.  For n >= 4 it runs from (3,4,1) through (1,2,1)
    to the next neighbour of (1,2,1) in vertex order, again on strand 3.
    """
    n, c = params.n, params.c
    if n < 4:
        return True, None
    end = (3, 4, 2) if c > 1 else (3, 5, 1) if n > 4 else (4, 3, 1)
    v1, v2, v3 = path = ((3, 4, 1), (1, 2, 1), end)
    if not (commute(v1, v2) and commute(v2, v3)) or commute(v1, v3):
        raise RuntimeError("induced path witness adjacency pattern failed")
    return False, path


F2F2Witness = tuple[Vertex, Vertex, Vertex, Vertex]


def f2xf2_witness(params: Params) -> Optional[F2F2Witness]:
    """Two non-adjacent pairs, fully joined across, spanning F2 x F2.

    Exists iff n >= 4: take the opposite-direction letters on strands
    (1,2) and on (3,4) in the first colour.
    """
    if params.n < 4:
        return None
    x1, x2, y1, y2 = quad = ((1, 2, 1), (2, 1, 1), (3, 4, 1), (4, 3, 1))
    joined = all(commute(x, y) for x in (x1, x2) for y in (y1, y2))
    if not joined or commute(x1, x2) or commute(y1, y2):
        raise RuntimeError("F2 x F2 witness adjacency pattern failed")
    return quad


def dominating_vertices(params: Params) -> tuple[Vertex, ...]:
    """Vertices adjacent to every other vertex: there are none.

    Each vertex (i, j, t) shares both its strands with (j, i, t), so the
    two never commute and neither dominates.  The instance (1,2,1) against
    (2,1,1) is checked; for n = 1 there are no vertices at all.
    """
    if params.n > 1 and commute((1, 2, 1), (2, 1, 1)):
        raise RuntimeError("(1,2,1) commutes with (2,1,1)")
    return ()


def to_dot(params: Params) -> Iterator[str]:
    """Deterministic DOT rendering with vertex labels d<i>.<j>.<t>, in pieces.

    Each edge is listed at its earlier end: the later neighbours of (i, j, t)
    in vertex order are the (p, q, s) with p > i and p, q not in {i, j}.
    """
    n, colours = params.n, range(1, params.c + 1)
    yield "graph commutation {\n"
    yield "".join([f'  "d{i}.{j}.{t}";\n' for i, j, t in vertices(params)])
    for i, j, t in vertices(params):
        if t == 1:  # the neighbours do not depend on the colour
            later = [
                f'"d{p}.{q}.{s}";\n' for p in range(i + 1, n + 1) if p != j
                for q in range(1, n + 1) if q not in (i, j, p) for s in colours
            ]
        head = f'  "d{i}.{j}.{t}" -- '
        yield "".join([head + name for name in later])
    yield "}\n"
