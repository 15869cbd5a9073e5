"""The defining relations of UV(n, c) built letter by letter as ``Word``s:
the reference against which ``words.relation_codes`` and its decoding
``words.defining_relations`` are checked.  Not collected by pytest; test
modules import it from this directory."""

from functools import lru_cache

from uvbraid import Params, Word, rho, sigma, word


@lru_cache(maxsize=64)
def reference_relations(params: Params) -> tuple[tuple[str, Word, Word], ...]:
    """Every defining relation instance as (label, lhs, rhs): virtual
    braid relations, far virtual commutations, involutions, far crossing
    commutations, far crossing/virtual commutations, then the slides.
    Cached, as the reference searches read it once per full assignment."""
    n, c = params.n, params.c
    rels: list[tuple[str, Word, Word]] = []
    for i in range(1, n - 1):
        rels.append((
            f"braid(r{i},r{i + 1})",
            word(params, rho(i), rho(i + 1), rho(i)),
            word(params, rho(i + 1), rho(i), rho(i + 1)),
        ))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            rels.append((
                f"comm(r{i},r{j})",
                word(params, rho(i), rho(j)),
                word(params, rho(j), rho(i)),
            ))
    for i in range(1, n):
        rels.append((f"invol(r{i})", word(params, rho(i), rho(i)), word(params)))
    for i in range(1, n - 1):
        for j in range(i + 2, n):
            for t in range(1, c + 1):
                for l in range(1, c + 1):
                    rels.append((
                        f"comm(s{i}.{t},s{j}.{l})",
                        word(params, sigma(i, t), sigma(j, l)),
                        word(params, sigma(j, l), sigma(i, t)),
                    ))
    for i in range(1, n):
        for j in range(1, n):
            if abs(i - j) < 2:
                continue
            for t in range(1, c + 1):
                rels.append((
                    f"comm(s{i}.{t},r{j})",
                    word(params, sigma(i, t), rho(j)),
                    word(params, rho(j), sigma(i, t)),
                ))
    for i in range(1, n - 1):
        for t in range(1, c + 1):
            rels.append((
                f"slide(s{i}.{t})",
                word(params, rho(i), rho(i + 1), sigma(i, t)),
                word(params, sigma(i + 1, t), rho(i), rho(i + 1)),
            ))
    return tuple(rels)


def reference_codes(params: Params) -> list[tuple[str, tuple[int, ...], tuple[int, ...]]]:
    """``reference_relations`` with each letter as its generator code:
    r<i> is i-1 and s<i>.<t> is (n-1)t + i-1."""

    def codes(w: Word) -> tuple[int, ...]:
        return tuple((params.n - 1) * letter.t + letter.i - 1 for letter in w)

    return [(label, codes(lhs), codes(rhs)) for label, lhs, rhs in reference_relations(params)]
