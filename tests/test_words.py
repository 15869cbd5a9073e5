import gc
import random
import tracemalloc

import pytest

from uvbraid import words
from uvbraid import (
    KLetter,
    KWord,
    Letter,
    Params,
    ParseError,
    Word,
    alphabet,
    defining_relations,
    free_reduce,
    parse_word,
    random_word,
    relator_words,
    rho,
    sigma,
    word,
)
from uvbraid.oracle import _coding, bfs_equal, replay
from uvbraid.verify import build_graph
from uvbraid.words import relation_codes

import parse_reference
from relations_reference import reference_codes, reference_relations


def test_params_validation():
    Params(1, 1)
    Params(8, 3)
    with pytest.raises(ValueError):
        Params(0, 1)
    with pytest.raises(ValueError):
        Params(3, 0)


def test_letter_tokens():
    assert rho(2).token() == "r2"
    assert sigma(1, 3).token() == "s1.3"
    assert sigma(1, 3, -1).token() == "S1.3"


def test_rho_inverse_is_itself():
    r = rho(1)
    assert r.inverse() == r


def test_sigma_inverse_flips_sign():
    s = sigma(2, 1)
    assert s.inverse() == sigma(2, 1, -1)
    assert s.inverse().inverse() == s


def test_letter_validation():
    with pytest.raises(ValueError):
        Letter("rho", 0)
    with pytest.raises(ValueError):
        Letter("sigma", 1, 0)
    with pytest.raises(ValueError):
        Letter("sigma", 1, 1, 2)


def test_parse_round_trip():
    p = Params(4, 2)
    for text in ("", "r1", "s3.2", "S1.1 r2 s2.2", "r1 r2 r3 S3.1"):
        assert str(parse_word(text, p)) == text


def test_parse_normalises_rho_case():
    p = Params(3, 1)
    assert str(parse_word("R1 R2", p)) == "r1 r2"


def test_parse_whitespace():
    p = Params(3, 1)
    assert parse_word("  r1   s1.1 ", p) == parse_word("r1 s1.1", p)


def test_parse_errors_carry_position():
    p = Params(3, 1)
    with pytest.raises(ParseError) as err:
        parse_word("r1 bogus", p)
    assert err.value.position == 2
    with pytest.raises(ParseError):
        parse_word("s1.2", p)  # colour 2 out of range for c=1
    with pytest.raises(ParseError):
        parse_word("r3", p)  # rho index must be < n
    with pytest.raises(ParseError):
        parse_word("s3.1", p)


@pytest.mark.parametrize("text", ["r\u00b2", "s\u00b2.1", "s1.\u00b2", "r\u0661"])
def test_parse_rejects_non_ascii_digits_with_position(text):
    with pytest.raises(ParseError) as err:
        parse_word("r1 " + text, Params(3, 1))
    assert err.value.position == 2
    assert str(err.value).startswith("token 2: expected")


# int() refuses more than 4,300 digits; the s<i>.<t> forms were already safe
@pytest.mark.parametrize("text", ["r" + "9" * 5000, "s1." + "9" * 5000], ids=["r", "s"])
def test_parse_refuses_an_oversized_index_with_position(text):
    with pytest.raises(ParseError) as err:
        parse_word("r1 " + text, Params(3, 1))
    assert err.value.position == 2


@pytest.mark.parametrize(
    "letter, message",
    [
        (rho(3), "letter index 3 out of range 1..2 for n=3"),
        (rho(0), "letter index 0 out of range 1..2 for n=3"),
        (sigma(3, 1), "letter index 3 out of range 1..2 for n=3"),
        (sigma(1, 2, -1), "crossing colour 2 out of range 1..1 for c=1"),
    ],
)
def test_word_checks_letters_against_params(letter, message):
    with pytest.raises(ValueError, match=message):
        Word(Params(3, 1), (rho(1), letter))


@pytest.mark.parametrize(
    "letter, message",
    [
        (KLetter(1, 4, 1), r"strand pair \(1,4\) out of range 1..3"),
        (KLetter(4, 2, 1, -1), r"strand pair \(4,2\) out of range 1..3"),
        (KLetter(1, 2, 2), "colour 2 out of range 1..1"),
    ],
)
def test_kword_checks_letters_against_params(letter, message):
    with pytest.raises(ValueError, match=message):
        KWord(Params(3, 1), (KLetter(1, 2, 1), letter))


def test_word_multiplication_checks_params():
    u = parse_word("r1", Params(3, 1))
    v = parse_word("r1", Params(4, 1))
    with pytest.raises(ValueError):
        u * v


def test_word_inverse():
    p = Params(3, 1)
    w = parse_word("r1 s2.1", p)
    assert str(w.inverse()) == "S2.1 r1"
    assert str(free_reduce(w * w.inverse())) == ""


# (class, letters, str, str of the inverse) for each kind of word
SEQUENCES = {
    "Word": (Word, (rho(1), sigma(2, 1, -1)), "r1 S2.1", "s2.1 r1"),
    "KWord": (KWord, (KLetter(1, 3, 1), KLetter(2, 1, 1, -1)), "d1.3.1 D2.1.1", "d2.1.1 D1.3.1"),
}


@pytest.mark.parametrize("cls, letters, text, inverse", SEQUENCES.values(), ids=SEQUENCES)
def test_sequence_methods(cls, letters, text, inverse):
    p = Params(3, 1)
    w = cls(p, letters)
    assert (len(w), tuple(w), str(w)) == (2, letters, text)
    assert (len(cls(p)), tuple(cls(p)), str(cls(p))) == (0, (), "")
    assert type(w.inverse()) is cls and str(w.inverse()) == inverse
    assert w * w.inverse() == cls(p, letters + w.inverse().letters)
    with pytest.raises(ValueError, match=r"parameters Params\(n=3, c=1\) and Params\(n=4, c=1\)"):
        w * cls(Params(4, 1), letters)
    other_cls, other_letters, _, _ = SEQUENCES["KWord" if cls is Word else "Word"]
    other = other_cls(p, other_letters)
    with pytest.raises(ValueError, match=f"a {cls.__name__} and a {other_cls.__name__}"):
        w * other


def test_free_reduce_cancels_rho_pairs():
    p = Params(4, 1)
    w = parse_word("r1 r1 s1.1 S1.1 r2 r3 r3 r2", p)
    assert free_reduce(w).letters == ()


def test_free_reduce_is_idempotent():
    p = Params(4, 2)
    w = parse_word("r1 s1.2 S1.2 r1 r2 s3.1", p)
    once = free_reduce(w)
    assert free_reduce(once) == once


def test_relation_inventory_small():
    # n=3, c=2: one braid triple, two involutions, two slide colours,
    # and nothing is far enough apart to commute.
    labels = [lab for lab, _, _ in defining_relations(Params(3, 2))]
    assert labels == [
        "braid(r1,r2)",
        "invol(r1)",
        "invol(r2)",
        "slide(s1.1)",
        "slide(s1.2)",
    ]


def test_relation_inventory_counts():
    # n=5, c=2: braid 3, far rho comm 3, invol 4, far sigma/sigma comm
    # 3*c*c, far sigma/rho comm 6*c, slide 3*c.
    rels = defining_relations(Params(5, 2))
    kinds = {}
    for lab, _, _ in rels:
        kinds[lab.split("(")[0]] = kinds.get(lab.split("(")[0], 0) + 1
    assert kinds == {"braid": 3, "invol": 4, "comm": 3 + 12 + 12, "slide": 6}


def test_defining_relations_are_cached_and_immutable():
    p = Params(4, 2)
    assert relation_codes(p) is relation_codes(p)  # the words are decoded on each call
    for build in (defining_relations, relation_codes):
        rels = build(p)
        assert isinstance(rels, tuple) and all(isinstance(rel, tuple) for rel in rels)


REFERENCE_SHAPES = [(n, c) for n in range(1, 9) for c in range(1, 4)] + [(30, 3), (12, 5)]


@pytest.mark.parametrize("n,c", REFERENCE_SHAPES)
def test_relations_match_the_word_built_reference(n, c):
    p = Params(n, c)
    assert defining_relations(p) == reference_relations(p)
    assert list(relation_codes(p)) == reference_codes(p)


def test_relator_words_are_relation_quotients():
    p = Params(4, 2)
    for (lab, lhs, rhs), (lab2, rel) in zip(defining_relations(p), relator_words(p)):
        assert lab == lab2
        assert rel == lhs * rhs.inverse()


def test_alphabet_size():
    # 2 rhos + 2 letters * 2 signs * 2 colours for n=3, c=2
    assert len(alphabet(Params(3, 2))) == 10
    assert len(alphabet(Params(5, 1))) == 4 + 8


def test_random_word_respects_length_and_params():
    p = Params(4, 2)
    rng = random.Random(7)
    for _ in range(50):
        w = random_word(p, rng, 12)
        assert len(w.letters) <= 12
        assert w.params == p


def test_word_is_hashable_value_object():
    p = Params(3, 1)
    assert parse_word("r1 s1.1", p) == parse_word("r1 s1.1", p)
    assert hash(parse_word("r1", p)) == hash(parse_word("r1", p))
    assert parse_word("r1", p) != parse_word("r2", p)


def _parse_outcome(text, p):
    try:
        return parse_word(text, p).letters
    except ParseError as err:
        return (str(err), err.position)


# Tokens parsed afresh whatever the table holds: malformed ones (non-ASCII
# digits, index 0 or out of range, colour out of range, missing colour,
# unknown kind) and other spellings of valid letters.
ODD_TOKENS = (
    "r\u00b2", "s\u0661.1", "s1.\u00b2", "s01.1", "r01", "r0", "r3", "s3.1", "s1.3", "s0.1",
    "s1.0", "s1.", "s1", "s.1", "s1.1.1", "x1", "d1.2.1", "R3", "R1", "S01.2",
)


def _forget_letter_table(p):
    words._tables(p).pop(words._letter_table.__wrapped__, None)


def _warm(p):
    parse_word(" ".join(letter.token() for letter in alphabet(p)), p)


def test_parse_table_cold_and_warm_agree():
    p = Params(3, 2)
    texts = [f"r1 {tok} s2.2" for tok in ODD_TOKENS]
    texts += [" ".join(letter.token() for letter in alphabet(p)), "R2 r2 S1.1 s1.1"]
    cold = []
    for text in texts:
        _forget_letter_table(p)
        cold.append(_parse_outcome(text, p))
    _warm(p)
    assert [_parse_outcome(text, p) for text in texts] == cold
    assert _parse_outcome("r1 x1", p) == ("token 2: unrecognised token 'x1'", 2)
    assert _parse_outcome("s1.1 r3", p)[1] == 2
    assert _parse_outcome("R3", Params(4, 1)) == (rho(3),)


def test_parse_table_is_per_params():
    _warm(Params(3, 2))
    with pytest.raises(ParseError) as err:
        parse_word("r1 s1.2", Params(3, 1))
    assert (str(err.value), err.value.position) == (
        "token 2: crossing colour 2 out of range 1..1 for c=1", 2
    )


def test_parse_table_holds_only_canonical_tokens():
    p = Params(4, 2)
    _forget_letter_table(p)
    parse_word("R1 r01 s01.1 S1.02 r1 s3.2 S3.2", p)
    for tok in ODD_TOKENS:
        _parse_outcome(tok, p)
    _warm(p)
    table = words._letter_table(p)
    assert sorted(table) == sorted(letter.token() for letter in alphabet(p))
    assert all(letter.token() == tok for tok, letter in table.items())
    assert len(table) == (p.n - 1) * (2 * p.c + 1)


def _respell(letter, rng):
    """Another spelling of a valid letter: an upper-case virtual letter or
    a leading zero in an index or a colour."""
    if letter.is_rho:
        return rng.choice((f"R{letter.i}", f"r0{letter.i}"))
    head = letter.token()[0]
    return rng.choice((f"{head}0{letter.i}.{letter.t}", f"{head}{letter.i}.0{letter.t}"))


def _mixed_texts(p, rng, count):
    """Texts of canonical tokens with other spellings of valid letters and
    ODD_TOKENS at random positions, canonical tokens before and after."""
    pool = alphabet(p)
    texts = []
    for _ in range(count):
        toks = []
        for _ in range(rng.randint(0, 12)):
            roll = rng.random()
            if pool and roll < 0.8:
                toks.append(rng.choice(pool).token())
            elif pool and roll < 0.95:
                toks.append(_respell(rng.choice(pool), rng))
            else:
                toks.append(rng.choice(ODD_TOKENS))
        texts.append(" ".join(toks))
    return texts


def _outcome(parse, text, p):
    """The letters of a parse, its word checked equal and hash-equal to
    the validated Word of those letters, or the error and its position."""
    try:
        w = parse(text, p)
    except ParseError as err:
        return (str(err), err.position)
    built = Word(p, w.letters)
    assert type(w) is Word and w == built and hash(w) == hash(built)
    return w.letters


@pytest.mark.parametrize(
    "text, expected",
    [
        ("", ()),
        ("s2.1", (sigma(2, 1),)),
        ("r1 S2.2", (rho(1), sigma(2, 2, -1))),
        ("R2 s1.1", (rho(2), sigma(1, 1))),  # a miss on the first token
        ("r1 s1.1 S1.9", ("token 3: crossing colour 9 out of range 1..2 for c=2", 3)),
        ("r1 s1.1 s1", ("token 3: expected s<i>.<t> but got 's1'", 3)),
        ("r3", ("token 1: letter index 3 out of range 1..2 for n=3", 1)),
    ],
)
def test_parse_word_of_few_tokens_and_misses(text, expected):
    # two or more tokens are looked up together by itemgetter, fewer one
    # by one; a miss anywhere falls back to the per-token parser
    p = Params(3, 2)
    _forget_letter_table(p)
    assert _parse_outcome(text, p) == expected
    _warm(p)
    assert _parse_outcome(text, p) == expected
    assert _parse_outcome(text, p) == _outcome(parse_reference.parse_word, text, p)


@pytest.mark.parametrize("n", range(1, 7))
@pytest.mark.parametrize("c", (1, 2, 3))
def test_parse_matches_the_per_token_reference(n, c):
    p = Params(n, c)
    for text in _mixed_texts(p, random.Random(1000 * n + c), 60):
        _forget_letter_table(p)
        parse_reference._letter_table.cache_clear()
        expected = _outcome(parse_reference.parse_word, text, p)
        assert _outcome(parse_word, text, p) == expected
        _warm(p)
        assert _outcome(parse_word, text, p) == expected
        assert _outcome(parse_reference.parse_word, text, p) == expected


def _kword(p, rng, length):
    pairs = [(i, j) for i in range(1, p.n + 1) for j in range(1, p.n + 1) if i != j]
    return KWord(p, tuple([
        KLetter(*rng.choice(pairs), rng.randint(1, p.c), rng.choice((1, -1)))
        for _ in range(length)
    ]))


@pytest.mark.parametrize("n, c", [(1, 1), (2, 3), (3, 2), (6, 3)])
def test_products_inverses_and_reductions_equal_constructed_sequences(n, c):
    p = Params(n, c)
    rng = random.Random(n + 10 * c)
    for _ in range(30):
        u, v = random_word(p, rng, 12), random_word(p, rng, 12)
        sequences = [u * v, u.inverse(), free_reduce(u * v), replay(u, v, ())]
        if n > 1:
            a, b = _kword(p, rng, 6), _kword(p, rng, 6)
            sequences += [a * b, a.inverse()]
        for w in sequences:
            built = type(w)(p, w.letters)
            assert w == built and hash(w) == hash(built) and str(w) == str(built)


def test_warm_parse_products_and_reductions_check_no_letter(monkeypatch):
    p = Params(5, 2)
    text = " ".join(letter.token() for letter in alphabet(p))
    text += " " + str(random_word(p, random.Random(5), 40))
    expected = parse_reference.parse_word(text, p).letters
    _warm(p)

    def refuse(*args):
        raise AssertionError("a letter was checked again")

    monkeypatch.setattr(words, "_parse_token", refuse)
    monkeypatch.setattr(words, "check_letter", refuse)
    monkeypatch.setattr(Word, "__post_init__", refuse)
    w = parse_word(text, p)
    assert w.letters == expected
    assert (w * w).letters == expected * 2
    assert w.inverse().inverse().letters == expected
    assert free_reduce(w * w.inverse()).letters == ()


def test_registry_keeps_a_params_tables_until_they_go_together():
    words._tables.cache_clear()
    p = Params(5, 2)
    builds = (alphabet, relation_codes, _coding, build_graph)
    held = {build: build(p) for build in builds}
    for c in range(1, words.TABLES_KEPT):
        alphabet(Params(2, c))
    assert all(build(p) is table for build, table in held.items())
    # p is now the most recently used; TABLES_KEPT other Params evict it
    for c in range(1, words.TABLES_KEPT + 1):
        alphabet(Params(2, c))
    assert words._tables(p) == {}
    assert alphabet(p) == held[alphabet] and alphabet(p) is not held[alphabet]


def test_evicted_oracle_tables_return_their_memory():
    words._tables.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _coding(Params(40, 3))
        built = tracemalloc.get_traced_memory()[0] - base
        # TABLES_KEPT further Params evict (40, 3), and build nothing
        for c in range(1, words.TABLES_KEPT + 1):
            words._tables(Params(2, c))
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # the codes and relators, with the alphabet and relation codes they
    # are built from: about 5.4 MB
    assert built > 4_000_000
    assert kept < built / 10


def test_an_oracle_search_keeps_the_codes_and_no_decoded_relations():
    words._tables.cache_clear()
    p = Params(6, 2)
    u, v = parse_word("r1 s2.1 r1", p), parse_word("r2 s1.1 r2", p)
    assert bfs_equal(u, v).proven
    kept = {build.__name__ for build in words._tables(p)}
    assert kept == {"_letter_table", "alphabet", "relation_codes", "_coding"}
