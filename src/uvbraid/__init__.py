"""Computational engine for universal virtual braid groups.

The group UV(n, c) has n strands, c colours of crossing generators and
one family of virtual (permutation) generators.  This package solves
its word problem through a finite-index right-angled Artin subgroup,
computes canonical normal forms, classifies graph-theoretic properties
of that subgroup, enumerates homomorphisms to symmetric groups, and
builds finite quotients.  See the ``uvbraid`` CLI for a scriptable
surface over the same operations.
"""

from .homs import (
    AbelImage,
    BudgetExceededError,
    HomSpec,
    SearchBudget,
    abelianize,
    color_parity,
    enumerate_homs,
    hom_from_bits,
    is_admissible,
    verify_homspec,
)
from .oracle import ProofResult, bfs_equal, replay
from .perms import (
    Perm,
    all_perms,
    identity,
    rho_word,
    strand_permutation,
    virtual_permutation,
)
from .quotients import OrderCertificate, QuotElem, quotient_image, quotient_order
from .raag import (
    KLetter,
    KWord,
    clique_number,
    dominating_vertices,
    f2xf2_witness,
    is_p3_free,
    max_clique,
    normal_form,
    to_dot,
)
from .semidirect import (
    NormalForm,
    are_equal,
    commutator,
    expand_kword,
    is_pure,
    is_trivial,
    kletter_to_word,
    to_normal_form,
)
from .words import (
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

__version__ = "0.1.0"

__all__ = [
    "AbelImage",
    "BudgetExceededError",
    "HomSpec",
    "KLetter",
    "KWord",
    "Letter",
    "NormalForm",
    "OrderCertificate",
    "Params",
    "ParseError",
    "Perm",
    "ProofResult",
    "QuotElem",
    "SearchBudget",
    "Word",
    "abelianize",
    "alphabet",
    "all_perms",
    "are_equal",
    "bfs_equal",
    "clique_number",
    "color_parity",
    "commutator",
    "defining_relations",
    "dominating_vertices",
    "enumerate_homs",
    "expand_kword",
    "f2xf2_witness",
    "free_reduce",
    "hom_from_bits",
    "identity",
    "is_admissible",
    "is_p3_free",
    "is_pure",
    "is_trivial",
    "kletter_to_word",
    "max_clique",
    "normal_form",
    "parse_word",
    "quotient_image",
    "quotient_order",
    "random_word",
    "relator_words",
    "replay",
    "rho",
    "rho_word",
    "sigma",
    "strand_permutation",
    "to_dot",
    "to_normal_form",
    "verify_homspec",
    "virtual_permutation",
    "word",
]
