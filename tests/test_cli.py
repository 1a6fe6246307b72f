import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lieposet
from lieposet import cli, exactla, indexfrob, liealg, posets, suites
from lieposet.liealg import build
from lieposet.posets import hexagon_type_c_poset
from oracles import eval_kirillov


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


@pytest.fixture
def chain6_file(tmp_path):
    p = tmp_path / "chain6.json"
    p.write_text(json.dumps(posets.poset_to_json(posets.chain_poset(6))))
    return str(p)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def _src_env():
    """The environment of a child interpreter that imports this lieposet."""
    return dict(os.environ, PYTHONPATH=str(Path(lieposet.__file__).resolve().parent.parent))


def test_import_loads_no_networkx():
    # networkx is a test-only oracle; the CLI must not pay for its import.
    code = 'import sys, lieposet.cli; assert "networkx" not in sys.modules'
    subprocess.run([sys.executable, "-c", code], env=_src_env(), check=True)


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

    @pytest.mark.parametrize("pretty", (False, True), ids=("plain", "pretty"))
    def test_error_report_follows_pretty(self, capsys, tmp_path, pretty):
        # An error report is one line like any other report, indented only
        # under --pretty.
        argv = ["build", str(tmp_path / "nope.json")] + (["--pretty"] if pretty else [])
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == cli.EXIT_INPUT
        assert json.loads(out)["kind"] == "input"
        lines = out.splitlines()
        if pretty:
            assert len(lines) > 1 and lines[1].startswith("  ")
        else:
            assert len(lines) == 1

    def test_cycle_diagnostic(self, capsys, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(
            {"family": "A", "elements": [1, 2], "relations": [[1, 2], [2, 1]]}
        ))
        code, rep = run(capsys, ["build", str(p)])
        assert code == cli.EXIT_INPUT
        assert "cycle" in rep["error"]

    @pytest.mark.parametrize("wrap", (
        lambda nested: nested,
        lambda nested: f'{{"family": "A", "elements": [1], "relations": {nested}}}',
    ), ids=("bare", "relations"))
    def test_deeply_nested_json(self, capsys, tmp_path, wrap):
        # Too deep for the JSON decoder's recursion: an input error, not a
        # traceback with the verification-failure exit code.
        p = tmp_path / "deep.json"
        p.write_text(wrap("[" * 100000 + "]" * 100000))
        code, rep = run(capsys, ["build", str(p)])
        assert code == cli.EXIT_INPUT == 2
        assert rep["kind"] == "input"


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
        f = indexfrob.frobenius_spectrum(g, indexfrob.index(g, seed=0))[0]
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
        assert (exactla.rank(eval_kirillov(g, cand)) < g.dim) == structured_singular
        for seed in (0, 5):
            code, rep = run(capsys, ["index", path, "--variant", variant,
                                     "--seed", str(seed), "--bound", "1000"])
            assert code == 0
            cert = indexfrob.index(g, trials=3, entry_bound=1000, seed=seed)
            f = indexfrob.frobenius_spectrum(g, cert)[0]
            assert rep["results"]["frobenius_functional"] == [
                f"{c.numerator}/{c.denominator}" for c in f]
            assert (f == cand) != structured_singular
            # The two-step hexagon's witness is the candidate itself, read
            # off the root block; branch's is the first random trial, which
            # is nonsingular at both seeds, so one trial ran.
            assert rep["results"]["certificate"]["trials"] == (1 if structured_singular else 0)
            assert (cert.witness == cand) != structured_singular

    @pytest.mark.parametrize("poset, variant, calls_in_index, candidate_evaluations", (
        pytest.param("hexagon", "gl", {"_kirillov_rows": 0, "rank": 1}, 1, id="hexagon-gl-1"),
        pytest.param("branch", "sl", {"_kirillov_rows": 1, "rank": 0}, 2, id="branch-sl-2"),
    ))
    def test_one_kirillov_matrix_per_functional(
        self, capsys, request, monkeypatch, poset, variant, calls_in_index,
        candidate_evaluations,
    ):
        # index ranks the root block of the two-step hexagon once and
        # evaluates no functional; branch is not two-step, so index evaluates
        # random trials until one is nonsingular (the first, at seed 0) and
        # ranks them mod p in the kernel, not through exactla.rank.  The
        # report then evaluates the structured candidate once (and the
        # witness once more if the candidate is singular), and never ranks
        # it: one reduced elimination of [K | f] decides and gives the
        # principal element.  _kirillov_rows is the one evaluator.
        path = request.getfixturevalue(f"{poset}_file")
        P = hexagon_type_c_poset() if poset == "hexagon" else posets.branch_poset()
        g = build(P, variant)
        if poset == "branch":
            f = indexfrob._random_functional(g.dim, 10**6, 0, 0)
            assert exactla.rank(eval_kirillov(g, f)) == g.dim
        calls = {"_kirillov_rows": 0, "rank": 0}

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(indexfrob, "_kirillov_rows",
                            counting("_kirillov_rows", indexfrob._kirillov_rows))
        monkeypatch.setattr(exactla, "rank", counting("rank", exactla.rank))
        code, rep = run(capsys, ["index", path, "--variant", variant, "--seed", "0"])
        assert code == 0 and rep["results"]["certificate"]["certified_frobenius"]
        assert calls == {
            "_kirillov_rows": calls_in_index["_kirillov_rows"] + candidate_evaluations,
            "rank": calls_in_index["rank"],
        }

    @pytest.mark.parametrize("bound", ("0", "-3"))
    def test_bound_below_one_rejected(self, capsys, branch_file, bound):
        code, rep = run(capsys, ["index", branch_file, "--seed", "0", "--bound", bound])
        assert code == cli.EXIT_INPUT
        assert rep["kind"] == "input" and "--bound" in rep["error"]

    @pytest.mark.parametrize("trials", ("0", "-2"))
    def test_trials_below_one_rejected_before_the_poset_is_read(self, capsys, tmp_path, trials):
        # Checked next to --bound: the flag is reported, not the missing file.
        absent = str(tmp_path / "absent.json")
        code, rep = run(capsys, ["index", absent, "--seed", "0", "--trials", trials])
        assert code == cli.EXIT_INPUT
        assert rep["kind"] == "input" and "--trials" in rep["error"]

    def test_unprintable_error_bound_rejected_before_any_trial(self, capsys, monkeypatch, chain6_file):
        # chain6 gl has index 3, so all 700 trials would run; at the default
        # bound their error bound has more digits than an int may print in.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        calls = []
        monkeypatch.setattr(indexfrob, "index", lambda *a, **k: calls.append(a))
        argv = ["index", chain6_file, "--variant", "gl", "--seed", "0", "--trials", "700"]
        code, rep = run(capsys, argv)
        assert code == cli.EXIT_INPUT and calls == []
        assert rep["kind"] == "input" and "--trials" in rep["error"]

    @pytest.mark.parametrize("trials, code", ((682, 0), (683, cli.EXIT_INPUT)))
    def test_trials_limit_is_exact_at_the_default_bound(
            self, capsys, monkeypatch, branch_file, trials, code):
        # 2000001 ** 682 prints in 4298 digits and 2000001 ** 683 in 4304.
        # branch sl is two-step, so an accepted run needs no trial.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        argv = ["index", branch_file, "--variant", "sl", "--seed", "0", "--trials", str(trials)]
        assert run(capsys, argv)[0] == code

    def test_unprintable_numerator_rejected_before_any_trial(self, capsys, monkeypatch, tmp_path):
        # chain9 gl has dim 45: the numerator divides 44 ** 2700, 4438 digits,
        # while 3 ** 2700 at --bound 1 has 1289.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        calls = []
        monkeypatch.setattr(indexfrob, "index", lambda *a, **k: calls.append(a))
        p = tmp_path / "chain9.json"
        p.write_text(json.dumps(posets.poset_to_json(posets.chain_poset(9))))
        argv = ["index", str(p), "--variant", "gl", "--seed", "0", "--bound", "1",
                "--trials", "2700"]
        code, rep = run(capsys, argv)
        assert code == cli.EXIT_INPUT and calls == []
        assert rep["kind"] == "input" and "--trials" in rep["error"]

    def test_trials_limit_is_exact_on_the_numerator(self, capsys, monkeypatch, branch_file):
        # At --bound 1 the numerator's d ** trials outgrows 3 ** trials.
        # branch sl is two-step, so an accepted run needs no trial.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        d = build(posets.branch_poset(), "sl").dim // 2 * 2
        last, ceiling = 1, 10 ** 4300
        while d ** (last + 1) < ceiling:
            last += 1
        assert 3 ** (last + 1) < ceiling
        for trials, code in ((last, 0), (last + 1, cli.EXIT_INPUT)):
            argv = ["index", branch_file, "--variant", "sl", "--seed", "0", "--bound", "1",
                    "--trials", str(trials)]
            assert run(capsys, argv)[0] == code, trials

    def test_printable_error_bound_reported(self, capsys, monkeypatch, chain6_file):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300, raising=False)
        argv = ["index", chain6_file, "--variant", "gl", "--seed", "0", "--trials", "200"]
        code, rep = run(capsys, argv)
        cert = rep["results"]["certificate"]
        assert code == 0 and (cert["index"], cert["trials"]) == (3, 200)
        assert Fraction(cert["error_bound"]) == Fraction(20, 2000001) ** 200

    def test_repeated_element_rejected(self, capsys, tmp_path):
        p = tmp_path / "repeated.json"
        p.write_text('{"family": "A", "elements": [1, 2, 2], "relations": [[1, 2]]}')
        code, rep = run(capsys, ["build", str(p)])
        assert code == cli.EXIT_INPUT
        assert rep["kind"] == "input" and "distinct" in rep["error"]

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

    def test_seed_required(self, capsys, branch_file):
        code, rep = run(capsys, ["index", branch_file])
        assert code == cli.EXIT_INPUT
        assert rep["kind"] == "input" and "--seed" in rep["error"]

    def test_deterministic_output(self, capsys, branch_file):
        _, rep1 = run(capsys, ["index", branch_file, "--seed", "7"])
        _, rep2 = run(capsys, ["index", branch_file, "--seed", "7"])
        rep1.pop("wall_time_s")
        rep2.pop("wall_time_s")
        assert rep1 == rep2


class TestReport:
    @pytest.mark.parametrize("argv, has_input", (
        pytest.param(["build", "{file}"], True, id="build"),
        pytest.param(["index", "{file}", "--seed", "0"], True, id="index"),
        pytest.param(["cohomology", "{file}", "--degree", "1"], True, id="cohomology"),
        pytest.param(["classify", "{file}", "--seed", "0"], True, id="classify"),
        pytest.param(["verify", "patterns", "--seed", "0"], False, id="verify"),
        pytest.param(["enumerate", "--size", "3", "--seed", "0"], False, id="enumerate"),
    ))
    def test_envelope_keys(self, capsys, hexagon_file, argv, has_input):
        # One envelope for every command; only the poset commands hash an input.
        code, rep = run(capsys, [a.format(file=hexagon_file) for a in argv])
        assert code == cli.EXIT_OK
        keys = {"schema", "command", "params", "results", "wall_time_s"}
        assert set(rep) == keys | ({"input_sha256"} if has_input else set())
        assert rep["schema"] == cli.SCHEMA and rep["command"] == argv[0]

    @pytest.mark.parametrize("argv", (
        ["build", "{file}", "--dump-algebra"],
        ["index", "{file}", "--seed", "0"],
        ["cohomology", "{file}", "--degree", "2"],
        ["classify", "{file}", "--seed", "0"],
        ["verify", "spectrum", "--seed", "0"],
        ["enumerate", "--size", "4", "--seed", "0"],
    ), ids=lambda argv: argv[0])
    def test_no_float_but_wall_time(self, capsys, hexagon_file, argv):
        # Every exact value is printed from an int or a Fraction; a float
        # in a report would be a rounded value.
        assert cli.main([a.format(file=hexagon_file) for a in argv]) == cli.EXIT_OK
        floats = []
        rep = json.loads(capsys.readouterr().out, parse_float=lambda s: floats.append(s) or s)
        assert floats == [rep["wall_time_s"]]

    def test_unwritable_stdout(self, capsys, monkeypatch, hexagon_file):
        # A report that cannot be written is one stderr line and exit 2,
        # not a traceback with exit 1, the code of a failed verification.
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", Full())
        code = cli.main(["index", hexagon_file, "--seed", "0"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT == 2
        assert err.count("\n") == 1 and "cannot write the report" in err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_unwritable_stdout_exit_status(self, hexagon_file):
        # In a real process the failed flush leaves the report buffered, and
        # the interpreter would flush it again at exit and exit with 120.
        # With stderr unwritable too, the message is lost but the code stays 2.
        argv = [sys.executable, "-m", "lieposet.cli", "index", hexagon_file, "--seed", "0"]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True,
                                  env=_src_env(), timeout=120)
            both = subprocess.run(argv, stdout=full, stderr=full, env=_src_env(), timeout=120)
        assert proc.returncode == both.returncode == cli.EXIT_INPUT
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, named", (
        pytest.param(["index", "{file}", "--seed", "x"], "--seed", id="seed-not-int"),
        pytest.param(["build", "{file}", "--variant", "so"], "--variant", id="unknown-variant"),
        pytest.param(["nonsense", "{file}"], "nonsense", id="unknown-subcommand"),
        # No namespace is parsed, so even --pretty gets the one-line report.
        pytest.param(["index", "{file}", "--seed", "x", "--pretty"], "--seed", id="pretty"),
    ))
    def test_parse_error_is_one_json_line(self, capsys, branch_file, argv, named):
        # A command line that does not parse is an input error like any
        # other: one line of JSON on stdout, nothing on stderr, exit 2.
        code = cli.main([a.format(file=branch_file) for a in argv])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_INPUT and err == ""
        assert out.count("\n") == 1
        rep = json.loads(out)
        assert set(rep) == {"error", "kind", "schema"}
        assert rep["kind"] == "input" and named in rep["error"]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["index", "--help"])
        assert exc.value.code == 0
        assert "--seed" in capsys.readouterr().out


class TestDispatch:
    def test_parser_is_built_once(self, capsys, monkeypatch, branch_file):
        run(capsys, ["build", branch_file])

        def no_rebuild():
            raise AssertionError("parser rebuilt")

        monkeypatch.setattr(cli, "build_parser", no_rebuild)
        code, rep = run(capsys, ["build", branch_file])
        assert code == cli.EXIT_OK and rep["results"]["dim"] == 9

    def test_rebound_command_is_reached_after_a_call(self, capsys, monkeypatch, branch_file):
        # The command is looked up when called, so a cmd_* rebound after the
        # parser exists (by a tracer or a test) is the one that runs.
        code, _ = run(capsys, ["index", branch_file, "--seed", "0"])
        assert code == cli.EXIT_OK
        seen = []

        def stub(args):
            seen.append(args.seed)
            raise cli.CliInputError("stub")

        monkeypatch.setattr(cli, "cmd_index", stub)
        code, rep = run(capsys, ["index", branch_file, "--seed", "4"])
        assert seen == [4]
        assert code == cli.EXIT_INPUT
        assert rep == {"schema": cli.SCHEMA, "error": "stub", "kind": "input"}


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

    def test_degree_four_answered(self, capsys, branch_file):
        # No degree guard: H* of branch gl is 1, 4, 6, 4, 1, 0, ...
        code, rep = run(capsys, ["cohomology", branch_file, "--degree", "4"])
        assert code == cli.EXIT_OK
        assert rep["results"]["dims"] == {"C": 1134, "Z": 504, "B": 503, "H": 1}

    def test_degree_above_dim(self, capsys, tmp_path):
        p = tmp_path / "point.json"
        p.write_text(json.dumps({"family": "A", "elements": [1], "relations": []}))
        code, rep = run(capsys, ["cohomology", str(p), "--degree", "3"])
        assert code == cli.EXIT_OK
        assert rep["results"]["dims"] == {"C": 0, "Z": 0, "B": 0, "H": 0}

    def test_dimension_guard(self, capsys, tmp_path):
        p = tmp_path / "big.json"
        p.write_text(json.dumps({
            "family": "A",
            "elements": list(range(1, 6)),
            "relations": [[i, i + 1] for i in range(1, 5)],
        }))
        code, rep = run(capsys, ["cohomology", str(p), "--degree", "2"])
        assert code == cli.EXIT_GUARD

    @pytest.mark.parametrize("extra", (
        ["--degree", "-1"],
        ["--degree", "2", "--max-dim", "-1"],
    ), ids=("degree", "max-dim"))
    def test_negative_argument_rejected(self, capsys, hexagon_file, extra):
        # Below zero is malformed input, not a guard violation.
        code, rep = run(capsys, ["cohomology", hexagon_file, *extra])
        assert code == cli.EXIT_INPUT
        assert rep["kind"] == "input" and f"{extra[-2]} must be >= 0" in rep["error"]

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

    def test_dump_complex_write_fails(self, capsys, hexagon_file, tmp_path, monkeypatch):
        # A failed write is an input error, not a traceback with the
        # verification-failure exit code.
        def fail(cm, stream):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cli.cohomology, "dump_complex", fail)
        code, rep = run(capsys, [
            "cohomology", hexagon_file, "--degree", "1",
            "--dump-complex", str(tmp_path / "complex.txt"),
        ])
        assert code == cli.EXIT_INPUT
        assert rep["kind"] == "input" and "No space left" in rep["error"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_dump_complex_close_fails(self, capsys, hexagon_file):
        # The triplets of a small complex stay buffered until the close,
        # whose flush is what fails on /dev/full.
        code, rep = run(capsys, [
            "cohomology", hexagon_file, "--degree", "1", "--dump-complex", "/dev/full",
        ])
        assert code == cli.EXIT_INPUT
        assert rep["kind"] == "input" and "cannot write /dev/full" in rep["error"]

    @pytest.mark.parametrize("degree, admitted", ((2, True), (3, False)))
    def test_dump_complex_bounded(self, capsys, tmp_path, degree, admitted):
        # gl of a height-one poset on 8 elements with 8 relations: dim 16.
        # The dump through degree + 1 holds sum C(16, n + 1) * 16 rows, 40256
        # at degree 2 and 110144 at degree 3, against (2^12 - 1) * 12 = 49140,
        # the whole complex at the default dimension guard.
        poset = tmp_path / "zigzag8.json"
        poset.write_text(json.dumps({
            "family": "A", "elements": list(range(1, 9)),
            "relations": [[1, 5], [2, 5], [2, 6], [3, 6], [3, 7], [4, 7], [4, 8], [1, 8]],
        }))
        out = tmp_path / "complex.txt"
        code, rep = run(capsys, [
            "cohomology", str(poset), "--degree", str(degree), "--max-dim", "16",
            "--dump-complex", str(out),
        ])
        if admitted:
            assert code == 0 and rep["results"]["dumped_to"] == str(out)
            assert out.read_text().count("# degree") == degree + 2
        else:
            assert code == cli.EXIT_GUARD
            assert rep["kind"] == "guard" and "110144 rows > 49140" in rep["error"]
            assert not out.exists()


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

    def test_step_count_matches_derived_series(self, capsys, monkeypatch, tmp_path):
        # The step count is read off the root block; the derived series
        # runs only where there is none, and both must agree with it.
        cases = [(P, variant) for n in range(1, 7) for P in posets.enumerate_height_one(n)
                 for variant in ("gl", "sl")]
        chains = [(posets.chain_poset(n), variant) for n in range(2, 6) for variant in ("gl", "sl")]
        branch = [(posets.branch_poset(), "gl"), (posets.branch_poset(), "sl")]
        cases += chains + branch + [(hexagon_type_c_poset(), "gl")]
        derived_series = liealg.derived_series
        calls = []
        monkeypatch.setattr(liealg, "derived_series", lambda g: calls.append(g) or derived_series(g))
        path = tmp_path / "poset.json"
        fallbacks, dims = [], set()
        for P, variant in cases:
            path.write_text(json.dumps(posets.poset_to_json(P)))
            calls.clear()
            code, rep = run(capsys, ["classify", str(path), "--variant", variant, "--seed", "0"])
            assert code == 0
            g = build(P, variant)
            _, derived_length, k_step = derived_series(g)
            res = rep["results"]
            assert (res["derived_length"], res["k_step"]) == (derived_length, k_step)
            fallback = g.root_block is None
            if fallback:
                fallbacks.append((P, variant))
            assert len(calls) == fallback
            dims.add(g.dim)
        # Only the three-step posets fall back: chain_poset(2) is two-step.
        assert fallbacks == chains[2:] + branch
        assert 0 in dims


class TestVerify:
    @pytest.mark.parametrize("suite", ("patterns", "rigidity", "crossval", "spectrum"))
    def test_suites_pass(self, capsys, suite):
        code, rep = run(capsys, ["verify", suite, "--seed", "0"])
        assert code == 0
        assert rep["results"]["passed"]
        assert rep["results"]["cases"]

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        # A failed case is a verification failure: the full report, exit 1.
        monkeypatch.setitem(suites.RUNNERS, "spectrum",
                            lambda seed: [suites._case("broken", False, "detail")])
        code, rep = run(capsys, ["verify", "spectrum", "--seed", "0"])
        assert code == cli.EXIT_VERIFY == 1
        assert rep["command"] == "verify" and rep["results"]["passed"] is False
        assert rep["results"]["cases"] == [
            {"name": "broken", "passed": False, "detail": "detail"}]

    def test_unknown_suite(self, capsys):
        code, rep = run(capsys, ["verify", "nonsense", "--seed", "0"])
        assert code == cli.EXIT_INPUT
        assert rep["kind"] == "input" and "nonsense" in rep["error"]


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
        # The library's guard is the only one.
        for size in ("9", "0"):
            code, rep = run(capsys, ["enumerate", "--size", size, "--seed", "0"])
            assert code == cli.EXIT_GUARD
            assert rep["error"] == "enumerate_height_one supports 1 <= n <= 8"

    def test_guard_is_one_below_library_guard(self, capsys):
        # The CLI once stopped one size below the library; now it has no
        # guard of its own, and the first refused size is the library's.
        assert not hasattr(cli, "ENUM_MAX_SIZE")
        assert posets.ENUM_GUARD == 8
        code, rep = run(capsys, [
            "enumerate", "--size", str(posets.ENUM_GUARD + 1), "--seed", "0",
        ])
        assert code == cli.EXIT_GUARD
        assert rep["error"] == "enumerate_height_one supports 1 <= n <= 8"
