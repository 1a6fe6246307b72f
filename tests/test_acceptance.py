"""Acceptance suite: one top-level test per advertised guarantee.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see
them) and asserts the same condition, so the suite doubles as a
human-readable report and a hard gate.
"""

import itertools
import math

from lieposet import cohomology, indexfrob, liealg, posets, simplicial, suites
from oracles import ONE, ZERO, eval_kirillov, is_skew_symmetric


def _gate(name, ok, detail=""):
    line = f"{'PASS' if ok else 'FAIL'}  {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def _corpus():
    """Every algebra exercised anywhere in the acceptance run."""
    algebras = [
        liealg.build(posets.branch_poset(), "gl"),
        liealg.build(posets.branch_poset(), "sl"),
        liealg.build(posets.hexagon_type_c_poset()),
        liealg.build(posets.chain_poset(2), "gl"),
        liealg.build(posets.chain_poset(3), "gl"),
        liealg.build(posets.chain_poset(4), "gl"),
        liealg.build(posets.antichain_poset(3), "gl"),
    ]
    algebras += [liealg.make_phi(n) for n in range(1, 6)]
    for n in range(2, 7):
        for P in posets.enumerate_height_one(n):
            algebras.append(liealg.build(P, "sl"))
    return algebras


def test_1_pattern_fidelity():
    g = liealg.build(posets.branch_poset(), "gl")
    ok_a = g.dim == 9 and liealg.sparsity_pattern(g) == suites.BRANCH_GL_PATTERN
    gc = liealg.build(posets.hexagon_type_c_poset())
    ok_c = gc.dim == 6 and liealg.sparsity_pattern(gc) == suites.HEXAGON_C_PATTERN
    _gate("1 bracket pattern fidelity", ok_a and ok_c,
          f"A: dim={g.dim}; C: dim={gc.dim}")


def test_2_hexagon_end_to_end():
    P = posets.hexagon_type_c_poset()
    g = liealg.build(P)
    _, _, k_step = liealg.derived_series(g)
    cert = indexfrob.index(g, seed=0)
    h2 = cohomology.cohomology_dim(g, 2)
    h1_nerve = simplicial.simplicial_cohomology_dim(P, 1)
    rep = cohomology.compare_h2(P)
    ok = (
        k_step == 2
        and cert.index == 0
        and cert.certified_frobenius
        and h2 == 0
        and h1_nerve == 1
        and not rep.match
    )
    _gate("2 hexagon end-to-end", ok,
          f"k={k_step} index={cert.index} H2={h2} H1(nerve)={h1_nerve} "
          f"match={rep.match}")


def test_3_rigidity():
    h2s = [cohomology.cohomology_dim(liealg.make_phi(n), 2) for n in range(1, 5)]
    shapes = [cohomology.z2_shape_check_phi(n)[0] for n in range(1, 4)]
    ok = all(v == 0 for v in h2s) and all(shapes)
    _gate("3 rigidity of the normal form", ok,
          f"H2={h2s} shape={shapes}")


def test_4_classification():
    checked = 0
    ok = True
    by_dim = {}
    for n in range(2, 7):
        for P in posets.enumerate_height_one(n):
            g = liealg.build(P, "sl")
            cert = indexfrob.index(g, seed=0)
            if cert.index != 0:
                continue
            checked += 1
            if g.dim % 2:
                ok = False
                continue
            res = indexfrob.normalize_to_phi(g)
            ok = ok and res.verified and 2 * res.n == g.dim
            by_dim.setdefault(g.dim, []).append((g, res))
    composed = 0
    for items in by_dim.values():
        for (g1, r1), (g2, r2) in itertools.combinations(items, 2):
            _, good = indexfrob.compose_isomorphism(g1, r1, g2, r2)
            ok = ok and good
            composed += 1
    _gate("4 classification onto the normal form", ok and checked > 0,
          f"{checked} Frobenius instances, {composed} pairwise compositions")


def test_5_trees_are_frobenius():
    ok = True
    counts = []
    for n in range(2, 7):
        frobenius = 0
        for P in posets.enumerate_height_one(n):
            props = posets.hasse_graph_properties(P)
            cert = indexfrob.index(liealg.build(P, "sl"), seed=0)
            if props["acyclic"] and props["connected"] and cert.index != 0:
                ok = False
            if cert.index == 0:
                frobenius += 1
        bound = math.floor(n ** (n - 2) / math.factorial(n))
        if frobenius < bound:
            ok = False
        counts.append(f"n={n}:{frobenius}>={bound}")
    _gate("5 tree Hasse diagrams give index 0", ok, " ".join(counts))


def test_6_spectrum():
    ok = True
    for n in range(1, 6):
        g = liealg.make_phi(n)
        f = (0,) * n + (1,) * n
        p = indexfrob.principal_element(g, f)
        sp = indexfrob.spectrum(g, p)
        if p != [ONE] * n + [ZERO] * n:
            ok = False
        if not (sp.binary and sp.multiplicity_of_0 == n
                and sp.multiplicity_of_1 == n):
            ok = False
    gc = liealg.build(posets.hexagon_type_c_poset())
    fc = indexfrob.frobenius_spectrum(gc, indexfrob.index(gc, seed=0))[0]
    spc = indexfrob.spectrum(gc, indexfrob.principal_element(gc, fc))
    ok = ok and spc.binary and (spc.multiplicity_of_0, spc.multiplicity_of_1) == (3, 3)
    _gate("6 binary principal-element spectra", ok,
          f"hexagon mults=({spc.multiplicity_of_0},{spc.multiplicity_of_1})")


def test_7_second_cohomology_cross_validation():
    corpus = [
        (posets.chain_poset(2), 1),
        (posets.chain_poset(3), 3),
        (posets.chain_poset(4), 6),
        (posets.branch_poset(), 6),
    ]
    ok = True
    details = []
    for P, frozen in corpus:
        rep = cohomology.compare_h2(P, "gl")
        if not rep.match or rep.lhs != frozen:
            ok = False
        details.append(f"{rep.lhs}={rep.rhs}")
    _gate("7 two-path second-cohomology agreement", ok, " ".join(details))


def test_8_property_suites():
    corpus = _corpus()
    ok_jacobi = all(liealg.check_jacobi(g) for g in corpus)

    ok_complex = True
    ok_h0 = True
    for g in corpus:
        if g.dim <= cohomology.DEFAULT_MAX_DIM:
            for n in range(0, min(2, g.dim)):
                d_n = cohomology.coboundary_matrix(g, n).matrix
                d_n1 = cohomology.coboundary_matrix(g, n + 1).matrix
                if d_n1.matmul(d_n).entries:
                    ok_complex = False
            if cohomology.cohomology_dim(g, 0) != liealg.center(g).dim:
                ok_h0 = False

    from lieposet import exactla

    ok_even = True
    for g in corpus:
        for trial in range(2):
            f = indexfrob._random_functional(g.dim, 100, 0, trial)
            M = eval_kirillov(g, f)
            if not is_skew_symmetric(M) or exactla.rank(M) % 2:
                ok_even = False

    ok_seeds = True
    for g in corpus:
        values = {indexfrob.index(g, seed=s).index for s in range(5)}
        if len(values) != 1:
            ok_seeds = False

    ok = ok_jacobi and ok_complex and ok_h0 and ok_even and ok_seeds
    _gate("8 property suites", ok,
          f"jacobi={ok_jacobi} complex={ok_complex} h0={ok_h0} "
          f"even-rank={ok_even} seed-stable={ok_seeds}")
