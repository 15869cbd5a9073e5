import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvbraid import (
    Params,
    ProofResult,
    are_equal,
    bfs_equal,
    defining_relations,
    parse_word,
    random_word,
    replay,
    word,
)
from uvbraid.oracle import PROVEN_EQUAL, UNKNOWN, _coding, _rule, _successors
from uvbraid.words import _tables, alphabet, free_reduce_letters

from test_oracle_reference import encode, reference_rules


def test_reflexive_at_depth_zero():
    p = Params(3, 1)
    w = parse_word("r1 s2.1 S1.1", p)
    res = bfs_equal(w, w)
    assert res.verdict == PROVEN_EQUAL
    assert res.path == ()


def test_slide_example():
    p = Params(3, 1)
    res = bfs_equal(parse_word("r1 s2.1 r1", p), parse_word("r2 s1.1 r2", p))
    assert res.proven
    assert len(res.path) >= 1


def test_small_budget_stays_unknown():
    p = Params(3, 1)
    res = bfs_equal(parse_word("r1", p), parse_word("", p), max_depth=3, max_frontier=50)
    assert res.verdict == UNKNOWN
    assert res.path is None


def test_rejects_mixed_params():
    with pytest.raises(ValueError):
        bfs_equal(parse_word("r1", Params(3, 1)), parse_word("r1", Params(4, 1)))


@pytest.mark.parametrize("budget", [{"max_depth": -1}, {"max_frontier": -1}])
def test_rejects_negative_budgets(budget):
    w = parse_word("r1", Params(3, 1))
    with pytest.raises(ValueError, match="budgets must be >= 0"):
        bfs_equal(w, w, **budget)


def test_free_reduced_pair_is_proven_before_any_table_is_built():
    # (23, 5) is used by no other test: 22 * 11 = 242 letters and
    # thousands of relators that an equal-by-free-reduction pair must
    # not pay for
    p = Params(23, 5)
    res = bfs_equal(parse_word("r1 s2.5", p), parse_word("r1 S1.1 s1.1 s2.5", p))
    assert res == ProofResult(PROVEN_EQUAL, (), 1)
    assert _coding.__wrapped__ not in _tables(p)


def test_search_encodes_the_rules_without_the_letter_table():
    _tables.cache_clear()
    p = Params(4, 2)
    u, v = parse_word("r1 s2.1 r1", p), parse_word("r2 s1.1 r2", p)
    res = bfs_equal(u, v)
    assert res.proven and _coding.__wrapped__ in _tables(p)
    # replay builds the one rewrite each step names, and keeps no table
    tables = set(_tables(p))
    assert replay(u, v, res.path).letters == ()
    assert set(_tables(p)) == tables


def test_refuses_an_alphabet_beyond_one_character_per_code():
    # (n-1)(2c+1) = 1,114,113 letters, one more than there are characters
    p = Params(2, 557056)
    with pytest.raises(ValueError, match="at most 1114112 letters, got 1114113"):
        bfs_equal(parse_word("r1", p), parse_word("s1.1", p))
    assert alphabet.__wrapped__ not in _tables(p)
    assert _coding.__wrapped__ not in _tables(p)


def _rules_named(p: Params, *labels: str) -> list[tuple[str, str]]:
    relations = {label: (lhs, rhs) for label, lhs, rhs in defining_relations(p)}
    rules = [_rule(label, p, relations) for label in labels]
    return [tuple(" ".join(x.token() for x in side) for side in rule) for rule in rules]


def test_rule_table_labels():
    p = Params(4, 1)
    assert _rules_named(
        p,
        "braid(r1):fwd",
        "braid(r1):rev",
        "comm(r1,r3)",
        "comm(r3,r1)",
        "comm(s1.1,r3)",
        "slide(s2.1):fwd",
        "slide(S1.1):rev",
        "rel(slide(s1.1)):ins",
        "rel(slide(s1.1)):del",
    ) == [
        ("r1 r2 r1", "r2 r1 r2"),
        ("r2 r1 r2", "r1 r2 r1"),
        ("r1 r3", "r3 r1"),
        ("r3 r1", "r1 r3"),
        ("s1.1 r3", "r3 s1.1"),
        ("r2 r3 s2.1", "s3.1 r2 r3"),
        ("r2 r1 S2.1", "S1.1 r2 r1"),
        ("", "r1 r2 s1.1 r2 r1 S2.1"),
        ("r1 r2 s1.1 r2 r1 S2.1", ""),
    ]
    # free reduction already covers cancelling pairs, so none is inserted
    with pytest.raises(ValueError, match="no rewrite"):
        _rules_named(p, "rel(invol(r1)):ins")


@pytest.mark.parametrize("n, c", [(1, 1), (2, 2), (4, 1), (5, 2)])
def test_every_rule_can_fire(n, c):
    # every rewrite matches its own pattern and changes it: an empty
    # pattern whose replacement free-reduces away would leave every node
    # unchanged
    p = Params(n, c)
    coding = _coding(p)
    for label, (pattern, replacement) in reference_rules(p).items():
        node = encode(p, pattern)
        out = encode(p, free_reduce_letters(replacement))
        assert out != node
        assert (label, 0, out) in _successors(node, coding, True), label
    assert all(relator for _, relator, _ in coding.relators)


@st.composite
def reduced_words(draw):
    params = Params(draw(st.integers(2, 5)), draw(st.integers(1, 2)))
    letters = alphabet(params)
    codes = draw(st.lists(st.integers(0, len(letters) - 1), max_size=12))
    # plant some rule's pattern so that deletions and rewrites match too;
    # UV(2, c) has no rules, as free reduction absorbs its one relator
    rules = list(reference_rules(params).values())
    pattern = draw(st.sampled_from(rules))[0] if rules else ()
    pos = draw(st.integers(0, len(codes)))
    word = [letters[x] for x in codes]
    return params, free_reduce_letters(tuple(word[:pos]) + pattern + tuple(word[pos:]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(reduced_words())
def test_coded_splice_is_the_free_reduced_rewrite(case):
    # each coded successor is the free-reduced rewrite that replay builds
    # from the step's label, applied on letters
    params, letters = case
    coding = _coding(params)
    decode = alphabet(params)
    relations = {label: (lhs, rhs) for label, lhs, rhs in defining_relations(params)}
    for label, pos, out in _successors(encode(params, letters), coding, True):
        pattern, replacement = _rule(label, params, relations)
        assert letters[pos : pos + len(pattern)] == pattern, (label, pos)
        want = free_reduce_letters(letters[:pos] + replacement + letters[pos + len(pattern) :])
        assert tuple(decode[ord(x)] for x in out) == want, (label, pos)


def test_replay_validates_position():
    p = Params(4, 1)
    u, one = parse_word("r1 r2 r1", p), parse_word("", p)
    assert replay(u, one, (("braid(r1):fwd", 0),)) == parse_word("r2 r1 r2", p)
    for step in [("braid(r1):fwd", 1), ("braid(r1):fwd", -1), ("braid(r2):fwd", 0)]:
        with pytest.raises(ValueError, match="does not match"):
            replay(u, one, (step,))


@pytest.mark.parametrize(
    "label",
    ["comm(r1,r2)", "comm(s1.1,S2.1)", "braid(r1):up", "slide(s9.1):fwd", "rel(nope):ins"],
)
def test_replay_rejects_forged_labels(label):
    # r1 r2 is adjacent, s1.1 and s2.1 too, "up" is no direction, UV(4, 1)
    # has no s9.1, and no relation is labelled "nope"
    p = Params(4, 1)
    u = parse_word("r1 r2 s1.1 S2.1 r1 r2 r1", p)
    with pytest.raises(ValueError, match="no rewrite"):
        replay(u, parse_word("", p), ((label, 0),))


def test_every_rule_preserves_the_element():
    # each rewrite must fix the group element it acts on, otherwise a
    # "proof" would be meaningless
    p = Params(4, 2)
    for label, (pattern, replacement) in reference_rules(p).items():
        assert are_equal(word(p, *pattern), word(p, *replacement)), label


def test_replay_reproduces_the_proof():
    p = Params(4, 1)
    u = parse_word("r1 s2.1 r1 r3", p)
    v = parse_word("r2 s1.1 r2 r3", p)
    res = bfs_equal(u, v)
    assert res.proven
    assert replay(u, v, res.path).letters == ()


def test_replay_rejects_invalid_path():
    p = Params(3, 1)
    u = parse_word("r1 s2.1 r1", p)
    v = parse_word("r2 s1.1 r2", p)
    with pytest.raises((KeyError, ValueError)):
        replay(u, v, (("braid(r1):fwd", 0),))


def test_replay_refuses_words_of_other_params():
    # r1 is valid in both, so only the Params check can refuse the pair.
    u = parse_word("r1", Params(3, 1))
    v = parse_word("r1", Params(4, 1))
    with pytest.raises(ValueError, match="parameters"):
        replay(u, v, ())


def test_never_disagrees_with_the_engine():
    p = Params(4, 2)
    rng = random.Random(29)
    proven = 0
    for _ in range(150):
        u = random_word(p, rng, 8)
        v = random_word(p, rng, 8)
        res = bfs_equal(u, v, max_depth=10, max_frontier=250)
        if res.proven:
            proven += 1
            assert are_equal(u, v)
            assert replay(u, v, res.path).letters == ()
    # the sample is small but should not be empty of positives
    assert proven >= 1


def test_equal_words_get_proofs_at_modest_depth():
    p = Params(4, 1)
    rng = random.Random(31)
    rels = [
        parse_word("r1 r2 r1 r2 r1 r2", p),
        parse_word("r1 r3 r1 r3", p),
        parse_word("s1.1 r3 S1.1 r3", p),
    ]
    proven = 0
    for _ in range(20):
        w = random_word(p, rng, 5)
        rel = rng.choice(rels)
        pos = rng.randrange(len(w.letters) + 1)
        spliced = word(p, *(w.letters[:pos] + rel.letters + w.letters[pos:]))
        res = bfs_equal(w, spliced, max_depth=6, max_frontier=4000)
        proven += res.proven
    assert proven >= 15


def test_proof_result_shape():
    res = ProofResult(PROVEN_EQUAL, (), 1)
    assert res.proven
    assert not ProofResult(UNKNOWN, None, 5).proven
