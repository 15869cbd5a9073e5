"""Words over the generators of the universal virtual braid group UV(n, c).

The group on n strands with c crossing colours is generated by virtual
letters r1 .. r(n-1) and, for each colour 1 <= t <= c, crossing letters
s<i>.<t>.  The defining relations are

    braid    r<i> r<i+1> r<i>      =  r<i+1> r<i> r<i+1>
    comm     r<i> r<j>             =  r<j> r<i>              |i-j| >= 2
    invol    r<i> r<i>             =  1
    comm     s<i>.<t> s<j>.<l>     =  s<j>.<l> s<i>.<t>      |i-j| >= 2
    comm     s<i>.<t> r<j>         =  r<j> s<i>.<t>          |i-j| >= 2
    slide    r<i> r<i+1> s<i>.<t>  =  s<i+1>.<t> r<i> r<i+1>

``relation_codes`` lists each instance once in generator codes, the one
kept form: the oracle encodes it, ``defining_relations`` decodes it per call.

Words are whitespace-separated token strings: ``r<i>`` for a virtual
letter, ``s<i>.<t>`` for a crossing, ``S<i>.<t>`` for its inverse.
Virtual letters are involutions so they carry no sign; ``R<i>`` is
accepted on input and normalised to ``r<i>``.  UV(1, c) is trivial by
convention, the only valid word there is the empty one.

``Letter`` and ``Word`` are the boundary objects.  The trust boundary is
the public constructor: ``Word(params, letters)`` (and ``raag.KWord``)
checks every letter against ``params``.  Inside the package, a sequence
whose letters are valid for its ``Params`` already is built by
``LetterSequence._checked``, which skips that check: a parse, products,
inverses and free reductions of checked words, ``random_word``, the
decoded ``defining_relations``, ``perms.rho_word``, the normal forms of
``semidirect`` and ``raag``, and ``semidirect.expand_kword``.
``parse_word`` takes each canonical token from a per-Params table of
letters already checked, and the word problem (``semidirect``) reads
their fields straight into plain integer tuples.

Every table derived from (n, c) -- the parse table, relation codes and
alphabet here, the oracle's codes and relators, ``verify``'s graph -- is
built on first use by a ``per_params`` function and kept in one registry,
keyed by Params and then by build function.  It keeps the tables of the
last ``TABLES_KEPT`` Params used; an older Params' tables are dropped
together, and built again if it comes back.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from operator import itemgetter
from random import Random
from typing import Any, Callable, Iterator, TypeVar

RHO = "r"
SIGMA = "s"


@dataclass(frozen=True, slots=True)
class Params:
    """Strand count n and number of crossing colours c."""

    n: int
    c: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"strand count must be >= 1, got n={self.n}")
        if self.c < 1:
            raise ValueError(f"colour count must be >= 1, got c={self.c}")


class SizeLimitError(ValueError):
    """A refusal, before any work, of a computation whose size in closed
    form in (n, c) passes one of the program's limits.  The CLI names
    ``--n`` or ``--c`` instead when that option is past ``sys.maxsize``,
    as for an ``OverflowError``."""


# How many Params keep their tables.  One workload touches at most about
# 25 (``verify-paper``), so none is built twice within it.
TABLES_KEPT = 64

T = TypeVar("T")


@lru_cache(maxsize=TABLES_KEPT)
def _tables(params: Params) -> dict[Callable, Any]:
    """The tables built so far for ``params``, keyed by build function."""
    return {}


def per_params(build: Callable[[Params], T]) -> Callable[[Params], T]:
    """Keep ``build(params)`` in the registry: built on first use, dropped
    with the rest of that Params' tables."""

    @wraps(build)
    def table(params: Params) -> T:
        tables = _tables(params)
        if build not in tables:
            tables[build] = build(params)
        return tables[build]

    return table


@dataclass(frozen=True, slots=True)
class Letter:
    """A single generator or inverse generator.

    Virtual letters have kind ``"r"``, index i, and are stored with
    t=0, sign=+1 (they are involutions, so the sign is meaningless).
    Crossing letters have kind ``"s"``, index i, colour t and sign +-1.
    """

    kind: str
    i: int
    t: int = 0
    sign: int = 1

    def __post_init__(self) -> None:
        if self.kind not in (RHO, SIGMA):
            raise ValueError(f"unknown letter kind {self.kind!r}")
        if self.kind == RHO and (self.t != 0 or self.sign != 1):
            raise ValueError("virtual letters carry no colour or sign")
        if self.kind == SIGMA and self.t < 1:
            raise ValueError(f"crossing colour must be >= 1, got {self.t}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @property
    def is_rho(self) -> bool:
        return self.kind == RHO

    def inverse(self) -> "Letter":
        if self.kind == RHO:
            return self
        return Letter(SIGMA, self.i, self.t, -self.sign)

    def token(self) -> str:
        if self.kind == RHO:
            return f"r{self.i}"
        head = "s" if self.sign > 0 else "S"
        return f"{head}{self.i}.{self.t}"


def rho(i: int) -> Letter:
    return Letter(RHO, i)


def sigma(i: int, t: int, sign: int = 1) -> Letter:
    return Letter(SIGMA, i, t, sign)


def check_letter(letter: Letter, params: Params) -> None:
    """Raise ValueError unless the letter is valid for UV(n, c)."""
    if not 1 <= letter.i <= params.n - 1:
        raise ValueError(
            f"letter index {letter.i} out of range 1..{params.n - 1} for n={params.n}"
        )
    if letter.kind == SIGMA and not 1 <= letter.t <= params.c:
        raise ValueError(
            f"crossing colour {letter.t} out of range 1..{params.c} for c={params.c}"
        )


S = TypeVar("S", bound="LetterSequence")


@dataclass(frozen=True)
class LetterSequence:
    """Letters tied to fixed parameters: the sequence methods that
    ``Word`` and ``raag.KWord`` share.  Each letter has ``inverse`` and
    ``token``; products and inverses keep the operands' type.

    Subclasses check their letters against ``params`` when built through
    the constructor.  ``_checked`` skips that check, so it takes only
    letters already checked against the same ``params``: products and
    inverses of checked sequences use it, as the inverse of a letter
    keeps its indices and colour."""

    params: Params
    letters: tuple = ()

    @classmethod
    def _checked(cls: type[S], params: Params, letters: tuple) -> S:
        """A sequence of ``letters``, each already checked against ``params``."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "params", params)
        object.__setattr__(seq, "letters", letters)
        return seq

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator:
        return iter(self.letters)

    def __mul__(self: S, other: S) -> S:
        if type(other) is not type(self):
            raise ValueError(
                f"cannot concatenate a {type(self).__name__} and a {type(other).__name__}"
            )
        if self.params != other.params:
            raise ValueError(
                f"cannot concatenate words with parameters {self.params} and {other.params}"
            )
        return self._checked(self.params, self.letters + other.letters)

    def inverse(self: S) -> S:
        return self._checked(self.params, tuple([l.inverse() for l in reversed(self.letters)]))

    def __str__(self) -> str:
        return " ".join(l.token() for l in self.letters)


@dataclass(frozen=True)
class Word(LetterSequence):
    """An immutable word in the generators, tied to fixed parameters.

    ``Word(params, letters)`` raises ValueError unless every letter is
    valid for UV(n, c); ``parse_word``, products, inverses and
    ``free_reduce`` build words of letters already checked, through
    ``LetterSequence._checked``."""

    def __post_init__(self) -> None:
        for letter in self.letters:
            check_letter(letter, self.params)


def word(params: Params, *letters: Letter) -> Word:
    return Word(params, tuple(letters))


class ParseError(ValueError):
    """Malformed token; ``position`` is the 1-based token index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"token {position}: {message}")
        self.position = position


def _parse_token(tok: str, position: int, params: Params) -> Letter:
    # int() accepts any Unicode decimal digit, so insist on ASCII first.
    if tok[0] in ("r", "R"):
        body = tok[1:]
        if not (body.isascii() and body.isdigit()):
            raise ParseError(f"expected r<i> but got {tok!r}", position)
        try:
            letter = rho(int(body))
        except ValueError as exc:  # beyond int()'s digit limit
            raise ParseError(str(exc), position) from None
    elif tok[0] in ("s", "S"):
        body = tok[1:]
        parts = body.split(".")
        if len(parts) != 2 or not body.isascii() or not all(p.isdigit() for p in parts):
            raise ParseError(f"expected {tok[0]}<i>.<t> but got {tok!r}", position)
        sign = 1 if tok[0] == "s" else -1
        try:
            letter = sigma(int(parts[0]), int(parts[1]), sign)
        except ValueError as exc:
            raise ParseError(str(exc), position) from None
    else:
        raise ParseError(f"unrecognised token {tok!r}", position)
    try:
        check_letter(letter, params)
    except ValueError as exc:
        raise ParseError(str(exc), position) from None
    return letter


@per_params
def _letter_table(params: Params) -> dict[str, Letter]:
    """Canonical token -> its checked Letter for UV(n, c), filled by
    ``parse_word`` as tokens are met: at most (n-1)(2c+1) entries."""
    return {}


def parse_word(text: str, params: Params) -> Word:
    """Parse a whitespace-separated token string into a Word.

    A token spelt as its letter's ``token()`` is looked up in a per-Params
    table of letters already parsed and checked; any other token (``R2``,
    ``s01.1``, a malformed one) is parsed afresh, so errors and their
    positions do not depend on what was parsed before.  When the table
    holds every token, the word is built from it in one pass, with no
    letter checked again.

    >>> str(parse_word("r1 s2.1 S1.1", Params(3, 1)))
    'r1 s2.1 S1.1'
    >>> parse_word("R2", Params(3, 1)).letters[0].token()
    'r2'
    """
    table = _letter_table(params)
    tokens = text.split()
    try:
        # itemgetter looks two or more tokens up in one C loop, into a tuple
        # allocated at its final size (tuple(map(...)) grows it by resizing,
        # which raised peak memory over many short words); for one token it
        # would return the bare letter.
        if len(tokens) > 1:
            letters = itemgetter(*tokens)(table)
        else:
            letters = tuple([table[tok] for tok in tokens])
    except KeyError:
        parsed: list[Letter] = []
        for pos, tok in enumerate(tokens, start=1):
            letter = table.get(tok)
            if letter is None:
                letter = _parse_token(tok, pos, params)
                if letter.token() == tok:
                    table[tok] = letter
            parsed.append(letter)
        letters = tuple(parsed)
    return Word._checked(params, letters)


def _cancels(a: Letter, b: Letter) -> bool:
    if a.kind != b.kind or a.i != b.i:
        return False
    if a.kind == RHO:
        return True
    return a.t == b.t and a.sign == -b.sign


def free_reduce_letters(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    out: list[Letter] = []
    for letter in letters:
        if out and _cancels(out[-1], letter):
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def free_reduce(w: Word) -> Word:
    """Cancel adjacent inverse pairs (r<i> r<i>, s S, S s) until none remain.

    >>> str(free_reduce(parse_word("r1 r1 s1.1 S1.1", Params(2, 1))))
    ''
    """
    return Word._checked(w.params, free_reduce_letters(w.letters))


Codes = tuple[int, ...]
Relation = tuple[str, Word, Word]


@per_params
def relation_codes(params: Params) -> tuple[tuple[str, Codes, Codes], ...]:
    """All defining relation instances of UV(n, c) as (label, lhs, rhs)
    in generator codes: r<i> is i-1 and s<i>.<t> is (n-1)t + i-1, so the
    virtual letters come first, then the crossings column by column.  The
    relations use no inverse letters, so codes carry no sign.

    The order is fixed: virtual braid relations, far virtual
    commutations, involutions, far crossing commutations, far
    crossing/virtual commutations, then the slide relations.  The result
    is a registry table, and a tuple so that no caller can change it.

    >>> for relation in relation_codes(Params(3, 1)):
    ...     print(relation)
    ('braid(r1,r2)', (0, 1, 0), (1, 0, 1))
    ('invol(r1)', (0, 0), ())
    ('invol(r2)', (1, 1), ())
    ('slide(s1.1)', (0, 1, 2), (3, 0, 1))
    """
    n, c = params.n, params.c
    far = [(i, j) for i in range(1, n - 1) for j in range(i + 2, n)]
    rels: list[tuple[str, Codes, Codes]] = []
    for i in range(1, n - 1):
        rels.append((f"braid(r{i},r{i + 1})", (i - 1, i, i - 1), (i, i - 1, i)))
    for i, j in far:
        rels.append((f"comm(r{i},r{j})", (i - 1, j - 1), (j - 1, i - 1)))
    for i in range(1, n):
        rels.append((f"invol(r{i})", (i - 1, i - 1), ()))
    for i, j in far:
        for t in range(1, c + 1):
            for l in range(1, c + 1):
                a, b = (n - 1) * t + i - 1, (n - 1) * l + j - 1
                rels.append((f"comm(s{i}.{t},s{j}.{l})", (a, b), (b, a)))
    for i, j in [(i, j) for i in range(1, n) for j in range(1, n) if abs(i - j) >= 2]:
        for t in range(1, c + 1):
            a = (n - 1) * t + i - 1
            rels.append((f"comm(s{i}.{t},r{j})", (a, j - 1), (j - 1, a)))
    for i in range(1, n - 1):
        for t in range(1, c + 1):
            a = (n - 1) * t + i - 1
            rels.append((f"slide(s{i}.{t})", (i - 1, i, a), (a + 1, i - 1, i)))
    return tuple(rels)


def relation_count(params: Params) -> int:
    """``len(relation_codes(params))`` in closed form, without the table.

    With k = n - 2 middle strands and F = k(k - 1)/2 far pairs: k braid
    relations, F far virtual commutations, n - 1 involutions, c^2 F far
    crossing commutations, 2cF crossing/virtual ones and ck slides.

    >>> relation_count(Params(3, 1)) == len(relation_codes(Params(3, 1))) == 4
    True
    """
    n, c = params.n, params.c
    k = max(n - 2, 0)
    far = k * (k - 1) // 2
    return (c + 1) ** 2 * far + (c + 1) * k + max(n - 1, 0)


def defining_relations(params: Params) -> tuple[Relation, ...]:
    """``relation_codes`` decoded into words: (label, lhs, rhs), same
    order, decoded afresh on each call; only the codes are kept."""
    letters = [rho(i) for i in range(1, params.n)]
    letters += [sigma(i, t) for t in range(1, params.c + 1) for i in range(1, params.n)]

    def decode(codes: Codes) -> Word:
        return Word._checked(params, tuple(map(letters.__getitem__, codes)))

    return tuple((label, decode(lhs), decode(rhs)) for label, lhs, rhs in relation_codes(params))


def relator_words(params: Params) -> list[tuple[str, Word]]:
    """Each defining relation as a single relator lhs * rhs^-1."""
    return [(label, lhs * rhs.inverse()) for label, lhs, rhs in defining_relations(params)]


@per_params
def alphabet(params: Params) -> tuple[Letter, ...]:
    """Every letter of UV(n, c) including crossing inverses, in a fixed
    order, each valid by construction; built once while its ``Params``
    is kept."""
    letters: list[Letter] = [rho(i) for i in range(1, params.n)]
    for i in range(1, params.n):
        for t in range(1, params.c + 1):
            letters.append(sigma(i, t, 1))
            letters.append(sigma(i, t, -1))
    return tuple(letters)


def random_word(params: Params, rng: Random, max_len: int) -> Word:
    pool = alphabet(params)
    if not pool:
        return Word._checked(params, ())
    length = rng.randint(0, max_len)
    return Word._checked(params, tuple([rng.choice(pool) for _ in range(length)]))
