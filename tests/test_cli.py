import json

import pytest

from lieposet import cli, exactla, indexfrob, liealg, posets
from lieposet.liealg import build
from lieposet.posets import hexagon_type_c_poset


@pytest.fixture
def branch_file(tmp_path):
    doc = {"family": "A", "elements": [1, 2, 3, 4],
           "relations": [[1, 2], [2, 3], [2, 4]]}
    p = tmp_path / "branch.json"
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture
def hexagon_file(tmp_path):
    doc = {
        "family": "C",
        "elements": [-3, -2, -1, 1, 2, 3],
        "relations": [[-3, 1], [-3, 2], [-2, 1], [-2, 3], [-1, 2], [-1, 3]],
    }
    p = tmp_path / "hex.json"
    p.write_text(json.dumps(doc))
    return str(p)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestBuild:
    def test_branch(self, capsys, branch_file):
        code, rep = run(capsys, ["build", branch_file])
        assert code == 0
        assert rep["schema"] == "lieposet-report/1"
        assert rep["results"]["dim"] == 9
        assert rep["results"]["cartan_count"] == 4
        assert len(rep["input_sha256"]) == 64
        assert rep["wall_time_s"] >= 0

    def test_sl_variant(self, capsys, branch_file):
        code, rep = run(capsys, ["build", branch_file, "--variant", "sl"])
        assert code == 0
        assert rep["results"]["dim"] == 8

    def test_dump_algebra(self, capsys, branch_file):
        code, rep = run(capsys, ["build", branch_file, "--dump-algebra"])
        assert code == 0
        alg = rep["results"]["algebra"]
        assert alg["dim"] == 9
        assert len(alg["basis_labels"]) == 9
        assert alg["brackets"]

    def test_missing_file(self, capsys, tmp_path):
        code, rep = run(capsys, ["build", str(tmp_path / "nope.json")])
        assert code == cli.EXIT_INPUT
        assert rep["kind"] == "input"

    def test_cycle_diagnostic(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(
            {"family": "A", "elements": [1, 2], "relations": [[1, 2], [2, 1]]}
        ))
        code, rep = run(capsys, ["build", str(p)])
        assert code == cli.EXIT_INPUT
        assert "cycle" in rep["error"]


class TestIndex:
    def test_hexagon(self, capsys, hexagon_file):
        code, rep = run(capsys, ["index", hexagon_file, "--seed", "0"])
        assert code == 0
        cert = rep["results"]["certificate"]
        assert cert["index"] == 0 and cert["claim"] == "exact"
        sp = rep["results"]["spectrum"]
        assert sp["binary"]
        assert (sp["multiplicity_of_0"], sp["multiplicity_of_1"]) == (3, 3)
        assert rep["results"]["principal_element"][:3] == ["1/2", "1/2", "1/2"]

    def test_principal_element_matches_library(self, capsys, hexagon_file):
        code, rep = run(capsys, ["index", hexagon_file, "--seed", "0"])
        assert code == 0
        g = build(hexagon_type_c_poset())
        f = indexfrob.frobenius_functional(g, seed=0)
        want = [f"{c.numerator}/{c.denominator}" for c in indexfrob.principal_element(g, f)]
        assert rep["results"]["principal_element"] == want

    @pytest.mark.parametrize("poset, variant, structured_singular", (
        ("hexagon", "gl", False),
        ("branch", "sl", True),
    ))
    def test_frobenius_functional_matches_library(
        self, capsys, request, poset, variant, structured_singular
    ):
        # Where the structured candidate is singular, the report reuses the
        # index certificate's witness instead of re-running the trials.
        path = request.getfixturevalue(f"{poset}_file")
        P = hexagon_type_c_poset() if poset == "hexagon" else posets.branch_poset()
        g = build(P, variant)
        cand = indexfrob.structured_candidate(g)
        assert (exactla.rank(indexfrob.eval_kirillov(g, cand)) < g.dim) == structured_singular
        for seed in (0, 5):
            code, rep = run(capsys, ["index", path, "--variant", variant,
                                     "--seed", str(seed), "--bound", "1000"])
            assert code == 0
            f = indexfrob.frobenius_functional(g, trials=3, entry_bound=1000, seed=seed)
            assert rep["results"]["frobenius_functional"] == [
                f"{c.numerator}/{c.denominator}" for c in f.coords]
            assert (f == cand) != structured_singular

    @pytest.mark.parametrize("bound", ("0", "-3"))
    def test_bound_below_one_rejected(self, capsys, branch_file, bound):
        code, rep = run(capsys, ["index", branch_file, "--seed", "0", "--bound", bound])
        assert code == cli.EXIT_INPUT
        assert rep["kind"] == "input" and "--bound" in rep["error"]

    def test_bound_one_accepted(self, capsys, branch_file):
        code, rep = run(capsys, ["index", branch_file, "--seed", "0", "--bound", "1"])
        assert code == 0
        assert rep["params"]["bound"] == 1

    def test_boolean_element_rejected(self, capsys, tmp_path):
        p = tmp_path / "bool.json"
        p.write_text('{"family": "A", "elements": [true, 2], "relations": [[1, 2]]}')
        code, rep = run(capsys, ["index", str(p), "--seed", "0"])
        assert code == cli.EXIT_INPUT
        assert rep["kind"] == "input"

    def test_seed_required(self, branch_file):
        with pytest.raises(SystemExit):
            cli.main(["index", branch_file])

    def test_deterministic_output(self, capsys, branch_file):
        _, rep1 = run(capsys, ["index", branch_file, "--seed", "7"])
        _, rep2 = run(capsys, ["index", branch_file, "--seed", "7"])
        rep1.pop("wall_time_s")
        rep2.pop("wall_time_s")
        assert rep1 == rep2


class TestInternalError:
    @pytest.mark.parametrize("exc", (liealg.ClosureError, liealg.CartanWeylError))
    def test_guard_failure_is_internal(self, capsys, monkeypatch, branch_file, exc):
        def broken(P, variant="gl"):
            raise exc("guard tripped")

        monkeypatch.setattr(liealg, "build", broken)
        code, rep = run(capsys, ["build", branch_file])
        assert code == cli.EXIT_INTERNAL == 4
        assert rep["kind"] == "internal" and rep["error"] == "guard tripped"


class TestCohomology:
    def test_hexagon_h2(self, capsys, hexagon_file):
        code, rep = run(capsys, ["cohomology", hexagon_file, "--degree", "2"])
        assert code == 0
        assert rep["results"]["dims"]["H"] == 0

    def test_degree_guard(self, capsys, branch_file):
        code, rep = run(capsys, ["cohomology", branch_file, "--degree", "4"])
        assert code == cli.EXIT_GUARD
        assert rep["kind"] == "guard"

    def test_dimension_guard(self, capsys, tmp_path):
        p = tmp_path / "big.json"
        p.write_text(json.dumps({
            "family": "A",
            "elements": list(range(1, 6)),
            "relations": [[i, i + 1] for i in range(1, 5)],
        }))
        code, rep = run(capsys, ["cohomology", str(p), "--degree", "2"])
        assert code == cli.EXIT_GUARD

    def test_dump_complex(self, capsys, hexagon_file, tmp_path):
        out = tmp_path / "complex.txt"
        code, rep = run(capsys, [
            "cohomology", hexagon_file, "--degree", "1",
            "--dump-complex", str(out),
        ])
        assert code == 0
        text = out.read_text()
        assert text.startswith("# degree 0:")
        assert "# degree 1:" in text

    def test_dump_complex_unwritable(self, capsys, hexagon_file, tmp_path):
        target = tmp_path / "missing-dir" / "complex.txt"
        code, rep = run(capsys, [
            "cohomology", hexagon_file, "--degree", "1",
            "--dump-complex", str(target),
        ])
        assert code == cli.EXIT_INPUT
        assert rep["kind"] == "input" and "cannot write" in rep["error"]


class TestClassify:
    def test_hexagon(self, capsys, hexagon_file):
        code, rep = run(capsys, ["classify", hexagon_file, "--seed", "0"])
        assert code == 0
        res = rep["results"]
        assert res["k_step"] == 2
        cls = res["classification"]
        assert cls["phi_n"] == 3 and cls["verified"]

    def test_not_applicable(self, capsys, branch_file):
        code, rep = run(capsys, ["classify", branch_file, "--seed", "0"])
        assert code == 0
        cls = rep["results"]["classification"]
        assert cls["applicable"] is False
        assert "index" in cls["reason"]


class TestVerify:
    @pytest.mark.parametrize("suite", ("patterns", "rigidity", "crossval", "spectrum"))
    def test_suites_pass(self, capsys, suite):
        code, rep = run(capsys, ["verify", suite, "--seed", "0"])
        assert code == 0
        assert rep["results"]["passed"]
        assert rep["results"]["cases"]

    def test_unknown_suite(self):
        with pytest.raises(SystemExit):
            cli.main(["verify", "nonsense", "--seed", "0"])


class TestEnumerate:
    def test_counts(self, capsys):
        code, rep = run(capsys, ["enumerate", "--size", "4", "--seed", "0"])
        assert code == 0
        assert rep["results"]["total_isomorphism_classes"] == 4

    def test_frobenius_filter(self, capsys):
        code, rep = run(capsys, [
            "enumerate", "--size", "4", "--seed", "0", "--filter", "frobenius",
        ])
        assert code == 0
        for case in rep["results"]["cases"]:
            assert case["certificate"]["index"] == 0

    def test_guard(self, capsys):
        code, rep = run(capsys, ["enumerate", "--size", "9", "--seed", "0"])
        assert code == cli.EXIT_GUARD

    def test_guard_is_one_below_library_guard(self, capsys):
        assert cli.ENUM_MAX_SIZE == posets.ENUM_GUARD - 1 == 7
        code, rep = run(capsys, [
            "enumerate", "--size", str(cli.ENUM_MAX_SIZE + 1), "--seed", "0",
        ])
        assert code == cli.EXIT_GUARD
        assert rep["error"] == "enumerate guard: size <= 7"
