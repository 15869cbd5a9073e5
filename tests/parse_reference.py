"""The per-token word parser: the reference against which ``words.parse_word``
and its one-pass table lookup are checked.  Each token is looked up in a
per-Params table of canonical tokens or parsed afresh, one at a time, and
the word is built through the validating ``Word`` constructor.  Not
collected by pytest; test modules import it from this directory."""

from functools import lru_cache

from uvbraid import Letter, Params, ParseError, Word, rho, sigma
from uvbraid.words import check_letter


def _parse_token(tok: str, position: int, params: Params) -> Letter:
    # int() accepts any Unicode decimal digit, so insist on ASCII first.
    if tok[0] in ("r", "R"):
        body = tok[1:]
        if not (body.isascii() and body.isdigit()):
            raise ParseError(f"expected r<i> but got {tok!r}", position)
        letter = rho(int(body))
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


@lru_cache(maxsize=64)
def _letter_table(params: Params) -> dict[str, Letter]:
    """Canonical token -> its checked Letter for UV(n, c), filled by
    ``parse_word`` as tokens are met: at most (n-1)(2c+1) entries."""
    return {}


def parse_word(text: str, params: Params) -> Word:
    """Parse a whitespace-separated token string into a Word.

    A token spelt as its letter's ``token()`` is looked up in a per-Params
    table of letters already parsed and checked; any other token (``R2``,
    ``s01.1``, a malformed one) is parsed afresh, so errors and their
    positions do not depend on what was parsed before.
    """
    table = _letter_table(params)
    letters: list[Letter] = []
    for pos, tok in enumerate(text.split(), start=1):
        letter = table.get(tok)
        if letter is None:
            letter = _parse_token(tok, pos, params)
            if letter.token() == tok:
                table[tok] = letter
        letters.append(letter)
    return Word(params, tuple(letters))
