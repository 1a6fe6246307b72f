"""Hypothesis strategies shared by the test modules."""

import itertools

from hypothesis import assume
from hypothesis import strategies as st

from lieposet import liealg, posets


@st.composite
def valid_posets(draw, family):
    """A random poset of ``family`` that satisfies its family's axioms.

    Family A has 1..5 elements; B/C/D have rank 1..3 (B) or 1..4 (C, D)
    and get their relations one mirror pair at a time.
    """
    if family == "A":
        elems = list(range(1, draw(st.integers(1, 5)) + 1))
        pairs = [(a, b) for a, b in itertools.combinations(elems, 2)]
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True)) if pairs else []
        P = posets.make_poset(elems, chosen, "A")
    else:
        n = draw(st.integers(1, 3 if family == "B" else 4))
        elems = [e for e in range(-n, n + 1) if e or family == "B"]
        # Order-compatible pairs, one per mirror orbit {(a, b), (-b, -a)};
        # in B and D, -i is never below i.
        reps = sorted({min((a, b), (-b, -a)) for a, b in itertools.combinations(elems, 2)
                       if family == "C" or a != -b})
        chosen = draw(st.lists(st.sampled_from(reps), max_size=4, unique=True)) if reps else []
        relation = frozenset()
        for a, b in chosen:
            closed = posets.transitive_closure(elems, relation | {(a, b), (-b, -a)})
            if family in ("B", "D") and any((-e, e) in closed for e in elems if e > 0):
                continue
            relation = closed
        P = posets.make_poset(elems, relation, family)
    assert posets.validate_family(P).ok
    return P


@st.composite
def algebras(draw, families="ABCDP", max_dim=9):
    """A Lie poset algebra of a random valid poset of one of ``families``
    (family A in gl or sl), or a normal form Phi_n for "P"; dim 1..max_dim."""
    family = draw(st.sampled_from(families))
    if family == "P":
        return liealg.make_phi(draw(st.integers(1, max_dim // 2)))
    P = draw(valid_posets(family))
    if family == "A":
        variant = draw(st.sampled_from(("gl", "sl")))
        dim = len(P) - (variant == "sl") + len(P.relation)
    else:
        variant = "gl"
        dim = P.n + len({min((a, b), (-b, -a)) for a, b in P.relation})
    assume(1 <= dim <= max_dim)
    g = liealg.build(P, variant)
    assert g.dim == dim
    return g
