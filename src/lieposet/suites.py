"""Named verification suites driven by the CLI's ``verify`` subcommand.

Each suite returns a list of case dicts {name, passed, detail}; a suite
passes when every case does.  The same checks back the acceptance tests.
"""

from . import cohomology, indexfrob, liealg, posets, simplicial


def _case(name, passed, detail=""):
    return {"name": name, "passed": bool(passed), "detail": str(detail)}


BRANCH_GL_PATTERN = {
    (0, 0), (1, 1), (2, 2), (3, 3),
    (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
}
# Rows/cols ordered -3,-2,-1,1,2,3; stars = diagonal plus the mirror-closed
# relation positions of the hexagon poset.
HEXAGON_C_PATTERN = {
    (0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5),
    (0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5),
}


def run_patterns(seed=0):
    cases = []
    g = liealg.build(posets.branch_poset(), "gl")
    cases.append(_case("branch-dim", g.dim == 9, f"dim={g.dim}"))
    pat = liealg.sparsity_pattern(g)
    cases.append(_case("branch-pattern", pat == BRANCH_GL_PATTERN, sorted(pat)))
    gc = liealg.build(posets.hexagon_type_c_poset())
    cases.append(_case("hexagon-dim", gc.dim == 6, f"dim={gc.dim}"))
    patc = liealg.sparsity_pattern(gc)
    cases.append(_case("hexagon-pattern", patc == HEXAGON_C_PATTERN, sorted(patc)))
    return cases


def run_rigidity(seed=0):
    cases = []
    for n in range(1, 5):
        h2 = cohomology.cohomology_dim(liealg.make_phi(n), 2)
        cases.append(_case(f"h2-phi{n}", h2 == 0, f"H2={h2}"))
    for n in range(1, 4):
        ok, _ = cohomology.z2_shape_check_phi(n)
        cases.append(_case(f"z2-shape-phi{n}", ok))
    return cases


def run_classification(seed=0):
    cases = []
    by_dim = {}
    for n in range(2, 7):  # height-one posets on 2..6 elements
        for idx_p, P in enumerate(posets.enumerate_height_one(n)):
            g = liealg.build(P, "sl")
            cert = indexfrob.index(g, seed=seed)
            name = f"n{n}-poset{idx_p}"
            if cert.index != 0:
                continue
            res = indexfrob.normalize_to_phi(g)
            cases.append(
                _case(f"{name}-phi{res.n}", res.verified and 2 * res.n == g.dim)
            )
            by_dim.setdefault(g.dim, []).append((g, res))
    for dim, items in sorted(by_dim.items()):
        for (g1, r1), (g2, r2) in zip(items, items[1:]):
            _, ok = indexfrob.compose_isomorphism(g1, r1, g2, r2)
            cases.append(_case(f"compose-dim{dim}", ok))
    return cases


def run_crossval(seed=0):
    cases = []
    expected = {("chain2", 2): 1, ("chain3", 3): 3, ("chain4", 4): 6}
    for (name, N), want in expected.items():
        r = cohomology.compare_h2(posets.chain_poset(N), "gl")
        cases.append(
            _case(f"{name}-gl", r.match and r.lhs == want, f"lhs={r.lhs} rhs={r.rhs}")
        )
    r = cohomology.compare_h2(posets.branch_poset(), "gl")
    cases.append(_case("branch-gl", r.match and r.lhs == 6, f"lhs={r.lhs} rhs={r.rhs}"))
    # The type-C probe: the three-component formula must NOT hold there.
    rc = cohomology.compare_h2(posets.hexagon_type_c_poset())
    cases.append(
        _case(
            "hexagon-C-mismatch",
            (not rc.match) and rc.lhs == 0 and rc.rhs >= 3,
            f"lhs={rc.lhs} rhs={rc.rhs}",
        )
    )
    h1 = simplicial.simplicial_cohomology_dim(posets.hexagon_type_c_poset(), 1)
    cases.append(_case("hexagon-nerve-circle", h1 == 1, f"H1={h1}"))
    return cases


def run_spectrum(seed=0):
    cases = []
    for n in range(1, 6):
        g = liealg.make_phi(n)
        f = indexfrob.structured_candidate(g)
        p = indexfrob.principal_element(g, f)
        want_p = [1] * n + [0] * n
        sp = indexfrob.spectrum(g, p)
        cases.append(
            _case(
                f"phi{n}",
                p == want_p
                and sp.binary
                and sp.multiplicity_of_0 == n
                and sp.multiplicity_of_1 == n,
                f"mults=({sp.multiplicity_of_0},{sp.multiplicity_of_1})",
            )
        )
    gc = liealg.build(posets.hexagon_type_c_poset())
    _, sp = indexfrob.frobenius_spectrum(gc, indexfrob.index(gc, seed=seed))
    cases.append(
        _case(
            "hexagon-C",
            sp.binary and sp.multiplicity_of_0 == 3 and sp.multiplicity_of_1 == 3,
            f"mults=({sp.multiplicity_of_0},{sp.multiplicity_of_1})",
        )
    )
    return cases


RUNNERS = {
    "patterns": run_patterns,
    "rigidity": run_rigidity,
    "classification": run_classification,
    "crossval": run_crossval,
    "spectrum": run_spectrum,
}
SUITES = tuple(RUNNERS)


def run_suite(name, seed=0):
    if name not in RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(RUNNERS)}")
    cases = RUNNERS[name](seed=seed)
    return {
        "suite": name,
        "passed": all(c["passed"] for c in cases),
        "cases": cases,
    }
