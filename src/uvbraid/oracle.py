"""Independent equality prover over the raw group presentation.

``bfs_equal`` decides u = v by breadth-first search from the free
reduction of u * v^-1, seeking the empty word.  Each search step
applies one directed rewrite at one position and then free-reduces:
either side of a defining relation replaced by the other (including
the sign-flipped forms of the slide relation), or insertion or
deletion of a whole relator.  Free reduction after every step already
covers cancelling pairs r<i> r<i> and s S / S s, so no rule inserts
one.  Every rule preserves the group element, so a found path is a
proof of equality; the result is three-valued and never claims
inequality.  Exhausting the depth or overflowing the frontier budget
returns Unknown.

The search runs on strings of codes: each letter is its index x in
``words.alphabet``, a node holds it as the character ``chr(x)``, and the
rewrites are encoded into such strings as ``_rules`` yields them.  The
codes, with a table of inverse codes, are a ``words`` registry table,
kept and dropped with their ``Params``; only ``replay`` builds
``rewrite_rules``, the same rewrites as ``Letter`` tuples.  Strings keep
slicing, concatenation, hashing and the pattern scan (``str.find``) in
C, where tuples of integers would hash element by element.  Every stored
word is free-reduced, so a rewrite only needs reducing at its two seams,
and an insertion whose seams cannot cancel is a plain concatenation.
Words are encoded on the way in, after the free reduction of u * v^-1 is
found non-empty; the result holds only rule labels and positions.

Proof paths are replayable: ``replay`` applies the recorded
(rule, position) steps to u * v^-1 on ``Letter``s, independently of the
coded search, and must end at the empty word.  This module shares
nothing with the normal-form engine except the letter type, which is
what makes it a useful cross-check.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from .words import (
    Letter,
    Params,
    Word,
    alphabet,
    free_reduce_letters,
    per_params,
    relator_words,
    rho,
    sigma,
)

PROVEN_EQUAL = "proven_equal"
UNKNOWN = "unknown"
# ``bfs_equal``'s default budget: proof length and frontier size.
MAX_DEPTH = 8
MAX_FRONTIER = 200_000

Rule = tuple[tuple[Letter, ...], tuple[Letter, ...]]
Step = tuple[str, int]
Node = str  # a word, one character chr(x) per index x into ``words.alphabet``


@dataclass(frozen=True)
class ProofResult:
    verdict: str
    path: Optional[tuple[Step, ...]]  # set iff proven_equal
    explored: int

    @property
    def proven(self) -> bool:
        return self.verdict == PROVEN_EQUAL


def _rules(params: Params) -> Iterator[tuple[str, Rule]]:
    """Every directed rewrite of UV(n, c) with its stable label, in a fixed order."""
    n, c = params.n, params.c

    def both_ways(label: str, lhs: tuple[Letter, ...], rhs: tuple[Letter, ...]) -> Iterator:
        yield f"{label}:fwd", (lhs, rhs)
        yield f"{label}:rev", (rhs, lhs)

    def commute(x: Letter, y: Letter) -> Iterator:
        yield f"comm({x.token()},{y.token()})", ((x, y), (y, x))
        yield f"comm({y.token()},{x.token()})", ((y, x), (x, y))

    for i in range(1, n - 1):
        yield from both_ways(
            f"braid(r{i})",
            (rho(i), rho(i + 1), rho(i)),
            (rho(i + 1), rho(i), rho(i + 1)),
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            yield from commute(rho(i), rho(j))
            for t in range(1, c + 1):
                for s_i in (1, -1):
                    yield from commute(sigma(i, t, s_i), rho(j))
                    yield from commute(sigma(j, t, s_i), rho(i))
                    for l in range(1, c + 1):
                        for s_j in (1, -1):
                            yield from commute(sigma(i, t, s_i), sigma(j, l, s_j))
    for i in range(1, n - 1):
        for t in range(1, c + 1):
            yield from both_ways(
                f"slide(s{i}.{t})",
                (rho(i), rho(i + 1), sigma(i, t, 1)),
                (sigma(i + 1, t, 1), rho(i), rho(i + 1)),
            )
            yield from both_ways(
                f"slide(S{i}.{t})",
                (sigma(i, t, -1), rho(i + 1), rho(i)),
                (rho(i + 1), rho(i), sigma(i + 1, t, -1)),
            )
    for label, relator in relator_words(params):
        letters = free_reduce_letters(relator.letters)
        if not letters:
            continue  # the involutions are already absorbed by free reduction
        yield f"rel({label}):ins", ((), letters)
        yield f"rel({label}):del", (letters, ())
        reversed_letters = free_reduce_letters(relator.inverse().letters)
        if reversed_letters != letters:
            yield f"rel({label}):rins", ((), reversed_letters)
            yield f"rel({label}):rdel", (reversed_letters, ())


@per_params
def rewrite_rules(params: Params) -> dict[str, Rule]:
    """All directed rewrites for UV(n, c), keyed by a stable label."""
    return dict(_rules(params))


def apply_rule(letters: tuple[Letter, ...], rule: Rule, pos: int) -> tuple[Letter, ...]:
    pattern, replacement = rule
    if not 0 <= pos <= len(letters) - len(pattern):
        raise ValueError(f"position {pos} out of range")
    if letters[pos : pos + len(pattern)] != pattern:
        raise ValueError(f"pattern does not match at position {pos}")
    return letters[:pos] + replacement + letters[pos + len(pattern) :]


@dataclass(frozen=True)
class _Coding:
    """Letters as one-character codes, ``chr`` of their indices in
    ``words.alphabet``, and the rules in those codes."""

    code: dict[Letter, str]
    inverse: dict[str, str]  # inverse[x] is the code of the inverse of letter x
    # (label, pattern, free-reduced replacement), in ``_rules`` order
    rules: tuple[tuple[str, Node, Node], ...]

    def encode(self, letters: tuple[Letter, ...]) -> Node:
        return "".join([self.code[letter] for letter in letters])


@per_params
def _coding(params: Params) -> _Coding:
    size = (params.n - 1) * (2 * params.c + 1)  # len(alphabet(params)), before building it
    if size > sys.maxunicode + 1:
        raise ValueError(
            f"the oracle codes each letter as one character, so it takes at most "
            f"{sys.maxunicode + 1} letters, got {size} for n={params.n}, c={params.c}"
        )
    letters = alphabet(params)
    code = {letter: chr(x) for x, letter in enumerate(letters)}
    coding = _Coding(code, {code[letter]: code[letter.inverse()] for letter in letters}, ())
    rules = tuple(
        (label, coding.encode(pattern), coding.encode(free_reduce_letters(rep)))
        for label, (pattern, rep) in _rules(params)
    )
    return replace(coding, rules=rules)


def _splice(node: Node, i: int, j: int, rep: Node, inverse: dict[str, str]) -> Node:
    """free_reduce(node[:i] + rep + node[j:]) for free-reduced node and rep.

    Only the two seams can cancel: rep's head against the prefix, then
    whatever is left on top against the suffix, up to the first letter
    that does not cancel.
    """
    a, b, e, k = i, 0, len(rep), j
    while a and b < e and node[a - 1] == inverse[rep[b]]:
        a -= 1
        b += 1
    end = len(node)
    while b < e and k < end and rep[e - 1] == inverse[node[k]]:
        e -= 1
        k += 1
    if b == e:
        while a and k < end and node[a - 1] == inverse[node[k]]:
            a -= 1
            k += 1
    return node[:a] + rep[b:e] + node[k:]


def _successors(node: Node, coding: _Coding) -> Iterator[tuple[str, int, Node]]:
    inverse = coding.inverse
    size = len(node)
    for label, pattern, rep in coding.rules:
        if pattern:
            span = len(pattern)
            pos = node.find(pattern)
            while pos >= 0:
                yield label, pos, _splice(node, pos, pos + span, rep, inverse)
                pos = node.find(pattern, pos + 1)
        else:
            # an insertion needs reducing only where a seam cancels
            left, right = inverse[rep[0]], inverse[rep[-1]]
            for pos in range(size + 1):
                if (pos and node[pos - 1] == left) or (pos < size and node[pos] == right):
                    yield label, pos, _splice(node, pos, pos, rep, inverse)
                else:
                    yield label, pos, node[:pos] + rep + node[pos:]


def bfs_equal(
    u: Word, v: Word, *, max_depth: int = MAX_DEPTH, max_frontier: int = MAX_FRONTIER
) -> ProofResult:
    """Three-valued equality: PROVEN_EQUAL with a replayable path, or UNKNOWN."""
    if u.params != v.params:
        raise ValueError(f"cannot compare words with parameters {u.params} and {v.params}")
    if max_depth < 0 or max_frontier < 0:
        raise ValueError(
            f"search budgets must be >= 0, got depth {max_depth} and width {max_frontier}"
        )
    letters = free_reduce_letters(u.letters + v.inverse().letters)
    if not letters:
        return ProofResult(PROVEN_EQUAL, (), 1)
    coding = _coding(u.params)
    start = coding.encode(letters)
    # every node reached, with the step that first reached it: the visited set
    parent: dict[Node, Optional[tuple[Node, str, int]]] = {start: None}
    frontier: list[Node] = [start]
    for _ in range(max_depth):
        nxt: list[Node] = []
        for node in frontier:
            for label, pos, out in _successors(node, coding):
                if out in parent:
                    continue
                parent[out] = (node, label, pos)
                if not out:
                    path: list[Step] = []
                    step = parent[out]
                    while step is not None:
                        prev, lab, p = step
                        path.append((lab, p))
                        step = parent[prev]
                    path.reverse()
                    return ProofResult(PROVEN_EQUAL, tuple(path), len(parent))
                nxt.append(out)
                if len(nxt) > max_frontier:
                    return ProofResult(UNKNOWN, None, len(parent))
        if not nxt:
            break
        frontier = nxt
    return ProofResult(UNKNOWN, None, len(parent))


def replay(u: Word, v: Word, path: tuple[Step, ...]) -> Word:
    """Apply a proof path to free_reduce(u * v^-1), free-reducing after
    each step; a valid equality proof ends at the empty word."""
    rules = rewrite_rules(u.params)
    letters = free_reduce_letters((u * v.inverse()).letters)
    for label, pos in path:
        letters = free_reduce_letters(apply_rule(letters, rules[label], pos))
    # u, v and every rule hold letters valid for u.params.
    return Word._checked(u.params, letters)
