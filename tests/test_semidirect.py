import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uvbraid import (
    KLetter,
    KWord,
    NormalForm,
    Params,
    Perm,
    Word,
    all_perms,
    are_equal,
    commutator,
    expand_kword,
    identity,
    is_pure,
    is_trivial,
    kletter_to_word,
    normal_form,
    parse_word,
    random_word,
    relator_words,
    rho_word,
    to_normal_form,
    virtual_permutation,
    word,
)
from uvbraid.semidirect import permute_kletter
from uvbraid.words import SIGMA, alphabet, rho, sigma

import word_problem_reference


def test_delta_expansion_small():
    p = Params(3, 1)
    assert str(kletter_to_word(KLetter(1, 2, 1), p)) == "s1.1"
    assert str(kletter_to_word(KLetter(2, 1, 1), p)) == "r1 s1.1 r1"
    assert str(kletter_to_word(KLetter(1, 3, 1), p)) == "r2 s1.1 r2"
    assert str(kletter_to_word(KLetter(3, 1, 1), p)) == "r2 r1 s1.1 r1 r2"
    assert str(kletter_to_word(KLetter(1, 3, 1, -1), p)) == "r2 S1.1 r2"


def test_delta_expansion_lands_in_the_kernel():
    p = Params(5, 2)
    verts = [(i, j, t) for i in range(1, 6) for j in range(1, 6) if i != j for t in (1, 2)]
    for i, j, t in verts:
        w = kletter_to_word(KLetter(i, j, t), p)
        assert virtual_permutation(w).is_identity
        # ... but not in the pure subgroup: the underlying crossing
        # still moves strands
        assert not is_pure(w)


def test_normal_form_worked_example():
    p = Params(3, 1)
    nf = to_normal_form(parse_word("r1 s2.1", p))
    assert [letter.token() for letter in nf.kword.letters] == ["d1.3.1"]
    assert nf.perm.cycle_string() == "(1 2)"


def test_relators_are_trivial():
    for n, c in ((2, 1), (3, 2), (5, 1), (6, 3)):
        for label, w in relator_words(Params(n, c)):
            assert is_trivial(w), label


def test_trivial_examples():
    p = Params(3, 1)
    assert is_trivial(parse_word("r1 r2 s1.1 r2 r1 S2.1", p))
    assert not is_trivial(parse_word("r1", p))
    assert not is_trivial(parse_word("s1.1", p))
    assert is_trivial(parse_word("", p))


def test_equality_examples():
    p = Params(3, 1)
    assert are_equal(parse_word("r1 s2.1 r1", p), parse_word("r2 s1.1 r2", p))
    assert not are_equal(parse_word("r1 s1.1", p), parse_word("s1.1 r1", p))


def test_are_equal_rejects_mixed_params():
    with pytest.raises(ValueError):
        are_equal(parse_word("r1", Params(3, 1)), parse_word("r1", Params(4, 1)))


def test_single_strand_group_is_trivial():
    p = Params(1, 3)
    w = parse_word("", p)
    nf = to_normal_form(w)
    assert nf == NormalForm(nf.kword, identity(1))
    assert is_trivial(w)


def test_factorisation_soundness_randomised():
    rng = random.Random(20260823)
    for n, c in ((3, 1), (4, 2)):
        p = Params(n, c)
        for _ in range(150):
            w = random_word(p, rng, 18)
            nf = to_normal_form(w)
            rebuilt = expand_kword(nf.kword) * rho_word(nf.perm, p)
            assert are_equal(w, rebuilt)
            assert virtual_permutation(w) == nf.perm


def test_normal_form_is_invariant_of_the_element():
    # multiplying by any relator must not change the normal form
    rng = random.Random(3)
    p = Params(4, 1)
    rels = [w for _, w in relator_words(p)]
    for _ in range(40):
        w = random_word(p, rng, 12)
        nf = to_normal_form(w)
        rel = rng.choice(rels)
        pos = rng.randrange(len(w.letters) + 1)
        spliced = word(p, *(w.letters[:pos] + rel.letters + w.letters[pos:]))
        assert to_normal_form(spliced) == nf


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_are_equal_is_a_congruence(data):
    # u = v exactly when x u y = x v y; half the pairs are made equal by
    # splicing a relator (or its inverse) into u
    p = Params(data.draw(st.integers(2, 5)), data.draw(st.integers(1, 2)))
    letters = st.lists(st.sampled_from(alphabet(p)), max_size=10)
    u, x, y = (Word(p, tuple(data.draw(letters))) for _ in range(3))
    if data.draw(st.booleans()):
        rel = data.draw(st.sampled_from(relator_words(p)))[1]
        rel = rel.inverse() if data.draw(st.booleans()) else rel
        pos = data.draw(st.integers(0, len(u)))
        v = Word(p, u.letters[:pos] + rel.letters + u.letters[pos:])
        assert are_equal(u, v)
    else:
        v = Word(p, tuple(data.draw(letters)))
    assert are_equal(x * u * y, x * v * y) == are_equal(u, v)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_are_equal_and_is_trivial_agree_with_normal_forms(data):
    # are_equal and is_trivial stack pieces without a read-out; the
    # NormalForm objects must tell the same, with half the pairs equal by a
    # relator
    p = Params(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3)))
    letters = st.lists(st.sampled_from(alphabet(p)), max_size=12) if p.n > 1 else st.just([])
    u, v = (Word(p, tuple(data.draw(letters))) for _ in range(2))
    if p.n > 1 and data.draw(st.booleans()):
        rel = data.draw(st.sampled_from(relator_words(p)))[1]
        pos = data.draw(st.integers(0, len(u)))
        v = Word(p, u.letters[:pos] + rel.letters + u.letters[pos:])
    assert are_equal(u, v) == (to_normal_form(u) == to_normal_form(v))
    assert is_trivial(u) == (to_normal_form(u) == to_normal_form(Word(p)))
    assert is_trivial(u * v.inverse()) == are_equal(u, v)


def benchmark_scale_pairs(p, length, count, seed):
    """(u, v, equal) at benchmark scale: u is random, and v is u with about
    length/20 conjugated relators inserted (equal), then in turn also with
    one crossing's sign flipped (unequal: it moves a colour exponent sum),
    or with a virtual letter appended (same kernel part, other permutation)."""
    rng = random.Random(seed)
    letters, rels = alphabet(p), [w.letters for _, w in relator_words(p)]
    for k in range(count):
        u = [rng.choice(letters) for _ in range(length)]
        v = list(u)
        for _ in range(round(length / 20)):
            x = [rng.choice(letters) for _ in range(rng.randint(0, 2))]
            pos = rng.randint(0, len(v))
            v[pos:pos] = x + list(rng.choice(rels)) + [letter.inverse() for letter in x[::-1]]
        if k % 3 == 1:
            crossing = rng.choice([pos for pos, letter in enumerate(v) if letter.kind == SIGMA])
            v[crossing] = v[crossing].inverse()
        elif k % 3 == 2:
            v.append(rho(rng.randint(1, p.n - 1)))
        yield Word(p, tuple(u)), Word(p, tuple(v)), k % 3 == 0


def test_are_equal_matches_normal_forms_at_benchmark_scale():
    p = Params(20, 3)
    for u, v, equal in benchmark_scale_pairs(p, 600, 36, seed=601):
        nu, nv = to_normal_form(u), to_normal_form(v)
        assert are_equal(u, v) is (nu == nv) is equal
        assert word_problem_reference.are_equal(u, v) is equal
        w = u * v.inverse()
        assert is_trivial(w) is word_problem_reference.is_trivial(w) is equal
        if not equal:
            # flipped pairs share the permutation, appended ones the kernel part
            assert (nu.perm == nv.perm) is not (nu.kword == nv.kword)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_word_problem_matches_the_two_scan_reference(data):
    # v is u with a relator inserted, a crossing flipped or a virtual
    # letter appended (another permutation), or a fresh word
    p = Params(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3)))
    letters = st.lists(st.sampled_from(alphabet(p)), max_size=16) if p.n > 1 else st.just([])
    u = Word(p, tuple(data.draw(letters)))
    v = list(u.letters)
    change = data.draw(st.sampled_from(["relator", "flip", "append", "fresh"]))
    if change == "relator" and p.n > 1:
        pos = data.draw(st.integers(0, len(v)))
        v[pos:pos] = data.draw(st.sampled_from(relator_words(p)))[1].letters
    elif change == "flip" and any(letter.kind == SIGMA for letter in v):
        pos = data.draw(st.sampled_from([k for k, x in enumerate(v) if x.kind == SIGMA]))
        v[pos] = v[pos].inverse()
    elif change == "append" and p.n > 1:
        v.append(rho(data.draw(st.integers(1, p.n - 1))))
    elif change == "fresh":
        v = data.draw(letters)
    v = Word(p, tuple(v))
    assert are_equal(u, v) is word_problem_reference.are_equal(u, v)
    assert are_equal(v, u) is word_problem_reference.are_equal(v, u)
    for w in (u, v, u * v.inverse()):
        assert is_trivial(w) is word_problem_reference.is_trivial(w)


def test_word_problem_never_reads_out(monkeypatch):
    import uvbraid.raag
    import uvbraid.semidirect

    p = Params(20, 3)
    pairs = list(benchmark_scale_pairs(p, 200, 6, seed=604))

    def refuse(*args):
        raise AssertionError("the word problem built a normal form")

    for module, name in [
        (uvbraid.raag, "read_out"),
        (uvbraid.semidirect, "read_out"),
        (uvbraid.semidirect, "KLetter"),
        (uvbraid.semidirect, "KWord"),
        (uvbraid.semidirect, "Perm"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    for u, v, equal in pairs:
        assert are_equal(u, v) is equal
        assert is_trivial(u * v.inverse()) is equal
    with pytest.raises(AssertionError, match="built a normal form"):
        to_normal_form(pairs[0][0])


def _stacked_normal_form(w):
    """w's normal form from the two-scan reference's pieces, stacked by
    ``raag.stack_pieces`` through ``raag.normal_form``."""
    pieces, images = word_problem_reference._scan(w)
    kword = KWord._checked(w.params, tuple([KLetter(*piece) for piece in pieces]))
    return NormalForm(normal_form(kword), Perm(tuple(images[1:])))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_normal_form_matches_the_kernel_stacker(data):
    # the fused scan's stacks, read out, against the pieces stacked apart;
    # half the words are u v^-1 with v = u and a relator, so they cancel
    p = Params(data.draw(st.integers(1, 6)), data.draw(st.integers(1, 3)))
    letters = st.lists(st.sampled_from(alphabet(p)), max_size=16) if p.n > 1 else st.just([])
    u = Word(p, tuple(data.draw(letters)))
    w = u
    if p.n > 1 and data.draw(st.booleans()):
        rel = data.draw(st.sampled_from(relator_words(p)))[1]
        pos = data.draw(st.integers(0, len(u)))
        w = u * Word(p, u.letters[:pos] + rel.letters + u.letters[pos:]).inverse()
    assert to_normal_form(w) == _stacked_normal_form(w)


def test_normal_form_matches_the_kernel_stacker_at_benchmark_scale():
    p = Params(20, 3)
    for u, v, equal in benchmark_scale_pairs(p, 600, 36, seed=601):
        w = u * v.inverse()
        for x in (u, v, w):
            assert to_normal_form(x) == _stacked_normal_form(x)
        assert (to_normal_form(w) == to_normal_form(Word(p))) is equal


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_word_problem_memory_at_large_n():
    # The strand array holds None until a strand's first push: a 3-letter
    # word at n = 10^6 costs the image lists (about 80 MB traced for
    # are_equal) and one pointer per strand, where an array of empty
    # stacks would add about 56 MB.
    n = 10**6
    p = Params(n, 1)
    w = parse_word(f"s1.1 r{n - 2} S{n - 1}.1", p)
    equal, peak = _traced_peak(lambda: are_equal(w, Word(p)))
    assert equal is False
    assert peak < 100_000_000
    nf, peak = _traced_peak(lambda: to_normal_form(w))
    assert nf.kword.letters == (KLetter(1, 2, 1), KLetter(n - 2, n, 1, -1))
    assert nf.perm == Perm(tuple(range(1, n - 2)) + (n - 1, n - 2, n))
    assert peak < 120_000_000


def test_are_equal_compares_images_with_one_identity_list():
    # a 3-letter are_equal at n = 10^6 traced an 88 MB peak while it built
    # the identity twice; with one identity and its copy it traces about 56 MB
    n = 10**6
    p = Params(n, 1)
    w = parse_word(f"s1.1 r{n - 2} S{n - 1}.1", p)
    equal, peak = _traced_peak(lambda: are_equal(w, Word(p)))
    assert equal is False
    assert peak < 72_000_000


def test_derived_words_check_no_letter(monkeypatch):
    import uvbraid.raag
    import uvbraid.words

    p = Params(5, 2)
    rng = random.Random(29)
    ws = [parse_word(str(random_word(p, rng, 30)), p) for _ in range(12)]
    ws += [ws[0] * ws[0].inverse(), parse_word("", p)]

    def derived():
        nfs = [to_normal_form(w) for w in ws]
        expanded = [expand_kword(nf.kword) for nf in nfs]
        sections = [rho_word(nf.perm, p) for nf in nfs]
        return {
            "to_normal_form": nfs,
            "raag.normal_form": [
                uvbraid.raag.normal_form(a.kword * b.kword.inverse()) for a in nfs for b in nfs[:3]
            ],
            "expand_kword": expanded,
            "rho_word": sections,
            "random_word": random_word(p, random.Random(7), 40),
            "is_trivial": [is_trivial(w) for w in ws],
            "are_equal": [are_equal(w, x * y) for w, x, y in zip(ws, expanded, sections)]
            + [are_equal(u, v) for u in ws for v in ws[:3]],
        }

    expected = derived()

    def refuse(*args):
        raise AssertionError("a letter was checked again")

    monkeypatch.setattr(uvbraid.words, "check_letter", refuse)
    monkeypatch.setattr(Word, "__post_init__", refuse)
    monkeypatch.setattr(KWord, "__post_init__", refuse)
    got = derived()
    monkeypatch.undo()
    assert got == expected
    assert all(got["are_equal"][: len(ws)])
    # what was built without a check is what the checking constructors accept
    plain = got["expand_kword"] + got["rho_word"] + [got["random_word"]]
    assert all(Word(p, w.letters) == w for w in plain)
    kwords = [nf.kword for nf in got["to_normal_form"]] + got["raag.normal_form"]
    assert all(KWord(p, kw.letters) == kw for kw in kwords)
    with pytest.raises(ValueError, match=r"strand pair \(1,6\) out of range 1..5"):
        kletter_to_word(KLetter(1, 6, 1), p)


def test_conjugation_relabels_vertices():
    p = Params(4, 2)
    for perm in all_perms(4):
        section = rho_word(perm, p)
        for d in (KLetter(1, 2, 1), KLetter(3, 1, 2), KLetter(2, 4, 1, -1)):
            lhs = section * kletter_to_word(d, p) * section.inverse()
            rhs = kletter_to_word(permute_kletter(perm, d), p)
            assert are_equal(lhs, rhs)


def test_is_pure():
    p = Params(3, 1)
    assert is_pure(parse_word("s1.1 r1 r1 S1.1", p))
    assert is_pure(parse_word("r1 s2.1 r2 r1 r2", p)) is False
    # crossings move strands: a single crossing is not pure
    assert not is_pure(parse_word("s1.1", p))


def test_commutator_of_commuting_deltas_is_trivial():
    p = Params(4, 1)
    u = kletter_to_word(KLetter(1, 2, 1), p)
    v = kletter_to_word(KLetter(3, 4, 1), p)
    assert is_trivial(commutator(u, v))


def test_commutator_of_noncommuting_deltas_is_not_trivial():
    p = Params(4, 1)
    u = kletter_to_word(KLetter(1, 2, 1), p)
    v = kletter_to_word(KLetter(2, 3, 1), p)
    assert not is_trivial(commutator(u, v))


def test_rho_conjugate_of_sigma():
    # r1 s1.1 r1 is the crossing seen from the swapped pair
    p = Params(2, 1)
    lhs = parse_word("r1 s1.1 r1", p)
    assert to_normal_form(lhs).kword.letters == (KLetter(2, 1, 1),)
    assert to_normal_form(lhs).perm.is_identity


def test_slide_consequence_family():
    p = Params(5, 1)
    for i in (1, 2, 3):
        u = word(p, rho(i), rho(i + 1), sigma(i, 1))
        v = word(p, sigma(i + 1, 1), rho(i), rho(i + 1))
        assert are_equal(u, v)
