"""The sparse structure index against the dense pair-scan formulas.

``bracket`` and ``coboundary_matrix`` read the structure constants through
``LieAlg.adjacency`` and ``LieAlg.producers``.  The oracles below are the
formulas they replaced, which scan every pair of basis indices; both sides
must agree exactly on random valid posets of all four families and on the
normal form.
"""

import itertools
import math

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lieposet import cohomology, liealg, posets
from lieposet.exactla import ONE, ZERO, SparseMat

MAX_DIM = 9


@st.composite
def algebras(draw, max_dim=MAX_DIM):
    """A Lie poset algebra of a random valid poset, or a normal form Phi_n."""
    family = draw(st.sampled_from("ABCDP"))
    if family == "P":
        return liealg.make_phi(draw(st.integers(1, max_dim // 2)))
    if family == "A":
        elems = list(range(1, draw(st.integers(1, 5)) + 1))
        pairs = [(a, b) for a, b in itertools.combinations(elems, 2)]
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=4, unique=True)) if pairs else []
        P = posets.make_poset(elems, chosen, "A")
        variant = draw(st.sampled_from(("gl", "sl")))
        dim = len(P) - (variant == "sl") + len(P.relation)
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
        variant = "gl"
        dim = n + len({min((a, b), (-b, -a)) for a, b in P.relation})
    assert posets.validate_family(P).ok
    assume(1 <= dim <= max_dim)
    g = liealg.build(P, variant)
    assert g.dim == dim
    return g


def vectors(dim):
    """Coordinate vectors: a basis vector, sparse, or with no zero entry."""
    nonzero = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)
    sparse = st.one_of(st.just(ZERO), nonzero)
    return st.one_of(
        st.integers(0, dim - 1).map(lambda i: [ONE if k == i else ZERO for k in range(dim)]),
        st.lists(sparse, min_size=dim, max_size=dim),
        st.lists(nonzero, min_size=dim, max_size=dim),
    )


def bracket_oracle(g, x, y):
    out = [ZERO] * g.dim
    for (i, j), vec in g.brackets.items():
        c = x[i] * y[j] - x[j] * y[i]
        if c:
            for k, v in vec.items():
                out[k] += c * v
    return out


def coboundary_oracle(g, n):
    """Entries of the degree-n differential by the O(dim^2) scan per k."""
    dim = g.dim
    combos_n = list(itertools.combinations(range(dim), n))
    combos_n1 = list(itertools.combinations(range(dim), n + 1))
    pos_n1 = {S: i for i, S in enumerate(combos_n1)}
    ents = {}

    def add(row_tuple, target, val, col):
        if not val:
            return
        key = (pos_n1[row_tuple] * dim + target, col)
        s = ents.get(key, ZERO) + val
        if s:
            ents[key] = s
        else:
            del ents[key]

    for s_pos, S in enumerate(combos_n):
        in_S = set(S)
        for t in range(dim):
            col = s_pos * dim + t
            for a in range(dim):
                if a in in_S:
                    continue
                G = tuple(sorted(S + (a,)))
                sign = ONE if G.index(a) % 2 == 0 else -ONE
                for m, c in g.structure(a, t).items():
                    add(G, m, sign * c, col)
            for k in S:
                R = tuple(x for x in S if x != k)
                in_R = set(R)
                sign_k = ONE if sum(1 for r in R if r < k) % 2 == 0 else -ONE
                for a in range(dim):
                    if a in in_R:
                        continue
                    for b in range(a + 1, dim):
                        if b in in_R:
                            continue
                        c_ab = g.structure(a, b).get(k)
                        if not c_ab:
                            continue
                        G = tuple(sorted(R + (a, b)))
                        i, j = G.index(a) + 1, G.index(b) + 1
                        sign_ij = ONE if (i + j) % 2 == 0 else -ONE
                        add(G, t, sign_ij * sign_k * c_ab, col)
    return ents


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_bracket_matches_pair_scan(data):
    g = data.draw(algebras())
    for _ in range(3):
        x = data.draw(vectors(g.dim))
        y = data.draw(vectors(g.dim))
        assert liealg.bracket(g, x, y) == bracket_oracle(g, x, y)


@settings(max_examples=40, deadline=None)
@given(algebras())
def test_coboundary_matches_pair_scan(g):
    mats = []
    for n in range(min(3, g.dim) + 1):
        cm = cohomology.coboundary_matrix(g, n)
        want = coboundary_oracle(g, n)
        # Same entries in the same insertion order: elimination consumes
        # them in that order, so its pivots and bit growth stay the same.
        assert list(cm.matrix.entries.items()) == list(want.items())
        assert (cm.matrix.n_rows, cm.matrix.n_cols) == (
            math.comb(g.dim, n + 1) * g.dim, math.comb(g.dim, n) * g.dim)
        mats.append(cm.matrix)
    for d_n, d_n1 in zip(mats, mats[1:]):
        assert d_n1.matmul(d_n) == SparseMat(d_n1.n_rows, d_n.n_cols, {})


@settings(max_examples=30, deadline=None)
@given(algebras())
def test_index_shares_bracket_dicts(g):
    assert "adjacency" not in vars(g) and "producers" not in vars(g)  # built lazily
    pairs = {(i, j) for (i, j), vec in g.brackets.items() if vec}
    assert sum(map(len, g.adjacency)) == 2 * len(pairs)
    for i, j in pairs:
        assert g.adjacency[i][j] is g.adjacency[j][i] is g.brackets[(i, j)]
    for row in g.adjacency:
        assert list(row) == sorted(row)
    produced = {(a, b, k): c for k, prods in enumerate(g.producers) for a, b, c in prods}
    assert produced == {(i, j, k): c for (i, j) in pairs for k, c in g.brackets[(i, j)].items()}
    for prods in g.producers:
        assert [p[:2] for p in prods] == sorted(p[:2] for p in prods)

