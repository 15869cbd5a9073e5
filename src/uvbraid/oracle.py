"""Independent equality prover over the raw group presentation.

``bfs_equal`` searches breadth-first from the free reduction of u * v^-1
for the empty word.  A step applies one directed rewrite at one position
and free-reduces: either side of a defining relation replaced by the
other (the slide relation also inverted), or a whole relator inserted or
deleted.  Every rewrite preserves the group element, so a found path
proves u = v; the result never claims inequality, and a spent depth or
frontier budget returns Unknown.

Nodes are free-reduced strings, letter x of ``words.alphabet`` as
``chr(x)``, so that slicing, hashing and ``str.find`` run in C, where
tuples of integers would hash element by element.  No table of rewrites
is kept: braid, commutation and slide patterns are two or three letters
long, so one pass over a node's windows finds them, and only the
relators are encoded, once per ``Params``.  The order of successors
shows in ``path`` and ``explored``: braids by i; commutations by strand
pair, then colour and sign; slides by i and colour, ``s`` before ``S``;
each form before its reverse; then each relator's insertions and
deletions, then its inverse's, in ``relation_codes`` order; within one
rewrite, by position.  ``replay`` builds each step's rewrite from
``words.defining_relations`` by its label and applies it on ``Letter``s,
independently of the coded search; sharing nothing with the normal-form
engine but the letter type makes this module a useful cross-check.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterator, Optional

from .words import Letter, Params, Word, alphabet, defining_relations, free_reduce
from .words import free_reduce_letters, parse_word, per_params, relation_codes, rho, sigma

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


@dataclass(frozen=True)
class _Coding:
    """Letters as the characters of their ``words.alphabet`` indices, and the relators."""

    params: Params
    code: dict[Letter, str]
    inverse: dict[str, str]  # inverse[x] is the code of the inverse of letter x
    strand: dict[str, int]  # i of r<i>, s<i>.<t> and S<i>.<t>
    kind: dict[str, int]  # 0 for r<i>, 2t - 1 for s<i>.<t>, 2t for S<i>.<t>
    relators: tuple[tuple[str, Node, Node], ...]  # (label, relator, inverse) per relation


@per_params
def _coding(params: Params) -> _Coding:
    n, c = params.n, params.c
    size = (n - 1) * (2 * c + 1)  # len(alphabet(params)), before building it
    if size > sys.maxunicode + 1:
        raise ValueError(
            f"the oracle codes each letter as one character, so it takes at most "
            f"{sys.maxunicode + 1} letters, got {size} for n={n}, c={c}"
        )
    letters = alphabet(params)
    code = {letter: chr(x) for x, letter in enumerate(letters)}
    inverse = {code[letter]: code[letter.inverse()] for letter in letters}
    # the generators in the order of their ``relation_codes`` codes
    gens = [code[rho(i)] for i in range(1, n)]
    gens += [code[sigma(i, t)] for t in range(1, c + 1) for i in range(1, n)]
    relators = []
    for label, lhs, rhs in relation_codes(params):
        # lhs rhs^-1 is free-reduced and not its own inverse; only x x = 1 reduces away
        if rhs:
            relator = "".join([gens[g] for g in lhs] + [inverse[gens[g]] for g in reversed(rhs)])
            relators.append((label, relator, "".join([inverse[x] for x in reversed(relator)])))
    strand = {code[letter]: letter.i for letter in letters}
    kind = {code[letter]: 2 * letter.t - (letter.sign > 0) if letter.t else 0 for letter in letters}
    return _Coding(params, code, inverse, strand, kind, tuple(relators))


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


def _label(window: Node, letters: tuple[Letter, ...]) -> str:
    """The label of the braid, commutation or slide rewrite of ``window``."""
    x, y, *z = [letters[ord(code)] for code in window]
    if not z:
        return f"comm({x.token()},{y.token()})"
    i = min(x.i, y.i)
    cross = z[0] if x.is_rho else x
    name = f"braid(r{i})" if cross.is_rho else f"slide({cross.token()[0]}{i}.{cross.t})"
    return f"{name}:{'fwd' if y.i > i else 'rev'}"


def _successors(node: Node, coding: _Coding, labels: bool = False) -> Iterator[tuple]:
    """Every (label, position, free-reduced successor) of a free-reduced node,
    in the module docstring's order; labels are "" unless asked for."""
    n, c, inverse, size = coding.params.n, coding.params.c, coding.inverse, len(node)
    strands = [coding.strand[x] for x in node]
    kinds = [coding.kind[x] for x in node]
    # (rank, position, span, replacement): braids below 0, commutations, slides from top
    top = n * n * (2 * c + 1) * (4 * c + 4)
    found = []
    for pos in range(size - 1):
        a, b = strands[pos], strands[pos + 1]
        if a - b > 1 or b - a > 1:
            # x y -> y x.  lo and hi are the kinds on the lower and higher strand; a
            # pair's block for crossing kind k holds k on lo with r on hi, k on hi
            # with r on lo, then k on lo with each kind on hi; hi first comes second
            lo, hi = (kinds[pos], kinds[pos + 1]) if a < b else (kinds[pos + 1], kinds[pos])
            back = a > b
            lead, rank = (lo, 2 * (hi + (hi > 0)) + back) if lo else (hi, 3 - back if hi else back)
            rank += ((min(a, b) * n + max(a, b)) * (2 * c + 1) + lead) * (4 * c + 4)
            found.append((rank, pos, 2, node[pos + 1] + node[pos]))
        elif a != b and pos + 2 < size and strands[pos + 2] == a and not kinds[pos + 1]:
            # a b a on strands i and i + 1 with r in the middle: a braid, or a slide carrying
            # the crossing past both r onto b, if it is s iff last == (b > a); fwd iff b > a
            first, last = kinds[pos], kinds[pos + 2]
            up = b > a
            if not (first or last):
                rank = 2 * min(a, b) + (not up) - 2 * n
                found.append((rank, pos, 3, node[pos + 1] + node[pos : pos + 2]))
            elif not (first and last) and bool(last) == (up == (first + last) % 2):
                moved = chr(ord(node[pos + 2] if last else node[pos]) + 2 * c * (b - a))
                rep = moved + node[pos : pos + 2] if last else node[pos + 1 : pos + 3] + moved
                found.append((top + 4 * c * min(a, b) + 2 * (first + last) + (not up), pos, 3, rep))
    for _, pos, span, rep in sorted(found):
        label = _label(node[pos : pos + span], alphabet(coding.params)) if labels else ""
        yield label, pos, _splice(node, pos, pos + span, rep, inverse)
    for name, relator, reverse in coding.relators:
        for way, pattern in (("", relator), ("r", reverse)):
            label = f"rel({name}):{way}ins" if labels else ""
            # an insertion needs reducing only where a seam cancels
            left, right = inverse[pattern[0]], inverse[pattern[-1]]
            for pos in range(size + 1):
                if (pos and node[pos - 1] == left) or (pos < size and node[pos] == right):
                    yield label, pos, _splice(node, pos, pos, pattern, inverse)
                else:
                    yield label, pos, node[:pos] + pattern + node[pos:]
            label = f"rel({name}):{way}del" if labels else ""
            pos = node.find(pattern)
            while pos >= 0:
                yield label, pos, _splice(node, pos, pos + len(pattern), "", inverse)
                pos = node.find(pattern, pos + 1)


def _path(parent: dict[Node, Optional[Node]], coding: _Coding) -> tuple[Step, ...]:
    """The steps to "", each labelled as its node's first successor that is the next node."""
    path, after = [], ""
    while (node := parent[after]) is not None:
        steps = _successors(node, coding, True)
        path.append(next((label, pos) for label, pos, out in steps if out == after))
        after = node
    return tuple(reversed(path))


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
    start = "".join([coding.code[letter] for letter in letters])
    # every node reached, with the node that first reached it: the visited set
    parent: dict[Node, Optional[Node]] = {start: None}
    frontier: list[Node] = [start]
    for _ in range(max_depth):
        nxt: list[Node] = []
        for node in frontier:
            for _, _, out in _successors(node, coding):
                if out in parent:
                    continue
                parent[out] = node
                if not out:
                    return ProofResult(PROVEN_EQUAL, _path(parent, coding), len(parent))
                nxt.append(out)
                if len(nxt) > max_frontier:
                    return ProofResult(UNKNOWN, None, len(parent))
        if not nxt:
            break
        frontier = nxt
    return ProofResult(UNKNOWN, None, len(parent))


def _rule(label: str, params: Params, relations: dict[str, tuple[Word, Word]]) -> Rule:
    """The (pattern, replacement) ``label`` names in ``relations``; ValueError if none."""
    head, _, rest = label.partition("(")
    body, _, kind = rest.rpartition(")")
    if head == "comm" and not kind:
        pair = parse_word(body.replace(",", " "), params).letters
        positive = [(x if x.sign > 0 else x.inverse()).token() for x in pair]
        names = {f"comm({','.join(positive)})", f"comm({','.join(positive[::-1])})"}
        if len(pair) == 2 and names & relations.keys():
            return pair, pair[::-1]
    elif head == "rel" and body in relations and kind in (":ins", ":del", ":rins", ":rdel"):
        lhs, rhs = relations[body]
        relator = free_reduce(lhs * rhs.inverse() if kind[1] != "r" else rhs * lhs.inverse())
        if relator.letters:  # the involutions reduce away
            return ((), relator.letters) if kind.endswith("ins") else (relator.letters, ())
    elif kind in (":fwd", ":rev"):
        name = f"slide(s{body[1:]})" if head == "slide" and body[:1] in ("s", "S") else ""
        if head == "braid" and body[:1] == "r" and body[1:].isdigit():
            name = f"braid({body},r{int(body[1:]) + 1})"
        if name in relations:  # slide(S...) is the slide relation inverted
            lhs, rhs = [w.inverse() if body[0] == "S" else w for w in relations[name]]
            return (lhs.letters, rhs.letters) if kind == ":fwd" else (rhs.letters, lhs.letters)
    raise ValueError(f"no rewrite of {params} is labelled {label!r}")


def replay(u: Word, v: Word, path: tuple[Step, ...]) -> Word:
    """Apply a proof path to free_reduce(u * v^-1), free-reducing after
    each step; a valid equality proof ends at the empty word."""
    letters = free_reduce_letters((u * v.inverse()).letters)
    relations = {label: (lhs, rhs) for label, lhs, rhs in defining_relations(u.params)}
    for label, pos in path:
        pattern, replacement = _rule(label, u.params, relations)
        if not 0 <= pos <= len(letters) or letters[pos : pos + len(pattern)] != pattern:
            raise ValueError(f"{label} does not match at position {pos}")
        letters = free_reduce_letters(letters[:pos] + replacement + letters[pos + len(pattern) :])
    # u, v and every relation hold letters valid for u.params.
    return Word._checked(u.params, letters)
