"""The two-scan word problem: the reference against which
``semidirect.are_equal`` and ``semidirect.is_trivial`` and their single
fused scan of u v^-1 are checked.  Each word is scanned on its own into
its piece list and image list; ``are_equal`` compares the two image
lists and, if they agree, stacks u's pieces followed by v's, inverted
and in reverse order, with ``raag.stack_pieces``.  So this reference
shares no loop with the engine, which stacks each crossing as its scan
reads it.  Not collected by pytest; test modules import it from this
directory."""

from uvbraid import Word
from uvbraid.raag import Piece, stack_pieces
from uvbraid.words import SIGMA


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


def is_trivial(w: Word) -> bool:
    pieces, images = _scan(w)
    return images == list(range(w.params.n + 1)) and _cancels(pieces)


def are_equal(u: Word, v: Word) -> bool:
    if u.params != v.params:
        raise ValueError(f"cannot compare words with parameters {u.params} and {v.params}")
    u_pieces, u_images = _scan(u)
    v_pieces, v_images = _scan(v)
    if u_images != v_images:
        return False
    return _cancels(u_pieces + [(i, j, t, -sign) for i, j, t, sign in reversed(v_pieces)])
