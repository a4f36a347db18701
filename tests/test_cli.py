"""Command-line front end: exit codes, document round-trips, determinism,
and the selftest anchor suite."""

import io
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wittkit
from wittkit import cli, finite, serialize, subgroups
from wittkit.catalog import catalog_names
from wittkit.finite import classify

from formbank import enumerate_symmetric_forms
from test_factor import drop_last_factor
from test_knots import block_sum, change_of_basis

TREFOIL_DOC = '{"name": "trefoil", "psi": [[-1, 1], [0, -1]], "epsilon": -1}'
Z4_DOC = '{"prime": 2, "orders": [2], "gram": [["1/4"]], "epsilon": 1}'
Z9_DOC = '{"prime": 3, "orders": [2], "gram": [["1/9"]], "epsilon": 1}'


@pytest.fixture
def isotropic_searches(monkeypatch):
    """Forms the lagrangian oracle enumerated, one entry per enumeration."""
    searched = []
    enumerate_once = subgroups._isotropic_subgroups

    def counting(ctx, order):
        searched.append(ctx.form)
        return enumerate_once(ctx, order)

    monkeypatch.setattr(subgroups, "_isotropic_subgroups", counting)
    return searched


def run_cli(args, stdin=None, monkeypatch=None, capsys=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(args)
    out, err = capsys.readouterr()
    return code, out, err


# -- analyze --

class TestAnalyze:
    def test_bundled_trefoil(self, capsys):
        code = cli.main(["analyze", "--catalog", "trefoil"])
        out, _ = capsys.readouterr()
        assert code == 0
        doc = json.loads(out)
        assert doc["doubly_slice_obstructed"] == "yes"
        assert doc["multisignature"][0]["signature"] == -2

    def test_stdin_input(self, monkeypatch, capsys):
        code, out, _ = run_cli(["analyze", "--input", "-"],
                               TREFOIL_DOC, monkeypatch, capsys)
        assert code == 0
        assert json.loads(out)["slice_obstructed"] == "yes"

    def test_file_roundtrip(self, tmp_path, capsys):
        src = tmp_path / "knot.json"
        dst = tmp_path / "report.json"
        src.write_text(TREFOIL_DOC)
        code = cli.main(["analyze", "--input", str(src),
                         "--output", str(dst)])
        capsys.readouterr()
        assert code == 0
        doc = json.loads(dst.read_text())
        assert doc["name"] == "trefoil"

    def test_text_format(self, capsys):
        code = cli.main(["analyze", "--catalog", "trefoil",
                         "--format", "text"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert "slice obstruction: yes" in out
        assert "theta ~ 1.047198" in out

    def test_malformed_json(self, monkeypatch, capsys):
        code, _, err = run_cli(["analyze", "--input", "-"],
                               "not json", monkeypatch, capsys)
        assert code == 2
        assert "input error" in err

    def test_singular_matrix(self, monkeypatch, capsys):
        doc = '{"psi": [[1, 0], [0, 1]], "epsilon": -1}'
        code, _, err = run_cli(["analyze", "--input", "-"],
                               doc, monkeypatch, capsys)
        assert code == 2
        assert "singular" in err

    def test_invariant_violation_exits_3(self, monkeypatch, capsys):
        drop_last_factor(monkeypatch)
        code = cli.main(["analyze", "--catalog", "trefoil"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert "computation failed: factorization lost a factor" in err

    def test_unknown_catalog_name(self, capsys):
        code = cli.main(["analyze", "--catalog", "no-such-knot"])
        _, err = capsys.readouterr()
        assert code == 2
        assert "no catalog entry" in err

    def test_missing_input(self, capsys):
        code = cli.main(["analyze"])
        _, err = capsys.readouterr()
        assert code == 2

    def test_deterministic_bytes(self, monkeypatch, capsys):
        runs = []
        for _ in range(2):
            code, out, _ = run_cli(["analyze", "--input", "-"],
                                   TREFOIL_DOC, monkeypatch, capsys)
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]

    def test_emitted_report_reparses(self, capsys):
        code = cli.main(["analyze", "--catalog", "figure-eight"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert serialize.dumps(json.loads(out)) == out


# -- precision plumbing --

class TestPrecision:
    def test_flag(self, capsys):
        code = cli.main(["analyze", "--catalog", "trefoil",
                         "--precision", "2^-40"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["convention"]["precision"] == \
            f"1/{2 ** 40}"

    def test_env_var(self, monkeypatch, capsys):
        monkeypatch.setenv("WITTKIT_PRECISION", "1/1024")
        code = cli.main(["analyze", "--catalog", "trefoil"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["convention"]["precision"] == "1/1024"

    def test_flag_beats_env(self, monkeypatch, capsys):
        monkeypatch.setenv("WITTKIT_PRECISION", "1/1024")
        code = cli.main(["analyze", "--catalog", "trefoil",
                         "--precision", "1/2048"])
        out, _ = capsys.readouterr()
        assert json.loads(out)["convention"]["precision"] == "1/2048"

    def test_rejects_nonsense(self, capsys):
        assert cli.main(["analyze", "--catalog", "trefoil",
                         "--precision", "0"]) == 2
        capsys.readouterr()
        assert cli.main(["analyze", "--catalog", "trefoil",
                         "--precision", "fast"]) == 2
        capsys.readouterr()
        # a negative exponent once made 2 ** k a float and a TypeError
        for text in ("2^--3", "2^-1.5", "2^-"):
            assert cli.main(["analyze", "--catalog", "trefoil",
                             "--precision", text]) == 2, text
            capsys.readouterr()

    @pytest.mark.parametrize("from_env", [False, True])
    @pytest.mark.parametrize("text", ["2^-15000", "2^-100000", "1e-999999",
                                      "0.5", "1e-3", "1/0"])
    def test_refused_before_analyze(self, text, from_env, monkeypatch,
                                    capsys):
        # 2^-15000 once ran the whole analysis, then failed to write its
        # 4516-digit denominator; Fraction read "1e-999999" as a
        # million-digit integer.  Precisions take the documents' grammar.
        ran = []
        monkeypatch.setattr(cli, "analyze", lambda *args: ran.append(args))
        argv = ["analyze", "--catalog", "trefoil"]
        if from_env:
            monkeypatch.setenv("WITTKIT_PRECISION", text)
        else:
            argv += ["--precision", text]
        code, out, err = run_cli(argv, None, monkeypatch, capsys)
        assert (code, out, ran) == (2, "", [])
        assert "input error: --precision" in err
        assert ("WITTKIT_PRECISION" in err) == from_env

    def test_longest_writable_power_of_two(self):
        # 2^k has at most `limit` digits exactly when 2^k < 10^limit
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("integer string conversion is unlimited")
        k = (10 ** limit).bit_length() - 1
        assert str(cli.parse_precision(f"2^-{k}")) == f"1/{2 ** k}"
        with pytest.raises(ValueError, match="cannot write 2"):
            cli.parse_precision(f"2^-{k + 1}")


    def test_read_only_where_precision_is_read(self, monkeypatch, capsys):
        # linking has no precision: a bad WITTKIT_PRECISION does not stop it
        monkeypatch.setenv("WITTKIT_PRECISION", "abc")
        code, out, _ = run_cli(["linking", "--input", "-"], Z9_DOC,
                               monkeypatch, capsys)
        assert code == 0 and json.loads(out)["parts"]
        assert cli.main(["analyze", "--catalog", "trefoil"]) == 2
        assert "input error" in capsys.readouterr().err


# -- options per command --

ACCEPTED = {
    "analyze": {"input", "output", "format", "precision", "catalog"},
    "linking": {"input", "output", "format", "search-bound"},
    "oracle": {"input", "output", "format", "search-bound"},
    "catalog": {"output", "format", "catalog"},
    "selftest": {"output", "precision"},
}
VALUES = {"input": "-", "output": "-", "format": "json", "precision": "1/2",
          "search-bound": "10", "catalog": "trefoil"}


@pytest.mark.parametrize("command,option", [
    (c, o) for c in sorted(ACCEPTED) for o in sorted(VALUES)
    if o not in ACCEPTED[c]])
def test_options_a_command_does_not_read_exit_2(command, option, capsys):
    # once every command took all six options and ignored the rest
    assert cli.main([command, f"--{option}", VALUES[option]]) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_eighteen_option_slots():
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, cli.argparse._SubParsersAction))
    got = {name: {o[2:] for a in p._actions for o in a.option_strings
                  if o.startswith("--") and o != "--help"}
           for name, p in sub.choices.items()}
    assert got == ACCEPTED
    assert sum(map(len, got.values())) == 18


# -- linking and oracle --

class TestLinking:
    def test_odd_prime_classification(self, monkeypatch, capsys):
        code, out, _ = run_cli(["linking", "--input", "-"],
                               Z9_DOC, monkeypatch, capsys)
        assert code == 0
        part = json.loads(out)["parts"][0]
        assert part["metabolic"] is True
        assert part["hyperbolic"] is False
        assert part["multisignature"] == [
            {"prime": 3, "level": 2, "rank_mod_2": 1,
             "discriminant": "square"}]

    def test_even_prime_needs_oracle(self, monkeypatch, capsys):
        code, _, err = run_cli(["linking", "--input", "-"],
                               Z4_DOC, monkeypatch, capsys)
        assert code == 3
        assert "oracle" in err

    def test_even_prime_with_oracle(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["linking", "--input", "-", "--search-bound", "100000"],
            Z4_DOC, monkeypatch, capsys)
        assert code == 0
        part = json.loads(out)["parts"][0]
        assert part["verdict"] == "metabolic, not split metabolic"
        assert part["oracle"]["any"]["witnesses"] == [[[2]]]
        assert part["oracle"]["split"]["witnesses"] == []

    def test_boundary_document(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["linking", "--input", "-", "--search-bound", "100000"],
            '{"alpha": [[4]], "epsilon": 1}', monkeypatch, capsys)
        assert code == 0
        part = json.loads(out)["parts"][0]
        assert part["form"]["prime"] == 2
        assert part["form"]["orders"] == [2]
        assert part["verdict"] == "metabolic, not split metabolic"

    def test_hyperbolic_plane(self, monkeypatch, capsys):
        doc = ('{"prime": 3, "orders": [1, 1], '
               '"gram": [["0", "1/3"], ["1/3", "0"]], "epsilon": 1}')
        code, out, _ = run_cli(["linking", "--input", "-"],
                               doc, monkeypatch, capsys)
        assert code == 0
        assert json.loads(out)["parts"][0]["hyperbolic"] is True

    def test_one_search_per_part(self, monkeypatch, capsys,
                                 isotropic_searches):
        code, out, _ = run_cli(
            ["linking", "--input", "-", "--search-bound", "100000"],
            '{"alpha": [[12]], "epsilon": 1}', monkeypatch, capsys)
        assert code == 0
        parts = json.loads(out)["parts"]
        assert [p["form"]["prime"] for p in parts] == [2, 3]
        assert [f.prime for f in isotropic_searches] == [2, 3]

    def test_unrecognized_document(self, monkeypatch, capsys):
        code, _, err = run_cli(["linking", "--input", "-"],
                               '{"spam": 1}', monkeypatch, capsys)
        assert code == 2

    def test_one_multisignature_per_part(self, monkeypatch, capsys):
        built = []
        build = finite.dw_multisignature

        def counting(*args):
            built.append(args)
            return build(*args)

        monkeypatch.setattr(finite, "dw_multisignature", counting)
        monkeypatch.setattr(cli, "dw_multisignature", counting)
        code, out, _ = run_cli(["linking", "--input", "-"],
                               '{"alpha": [[45]], "epsilon": 1}',
                               monkeypatch, capsys)
        assert code == 0
        parts = json.loads(out)["parts"]
        assert [p["form"]["prime"] for p in parts] == [3, 5]
        assert len(built) == 2

    @pytest.mark.parametrize("doc", [Z9_DOC, '{"alpha": [[45]], "epsilon": 1}'])
    def test_each_input_checked_once(self, doc, monkeypatch, capsys):
        """The adjoint of a `linking` input is checked where it enters: in
        `FiniteLinkingForm` for a finite form, in `_primary_parts` for a
        boundary; its parts and the multisignature read the checked form."""
        checks = []
        check = finite._adjoint_is_iso

        def counting(*args):
            checks.append(args)
            return check(*args)

        monkeypatch.setattr(finite, "_adjoint_is_iso", counting)
        code, _, _ = run_cli(["linking", "--input", "-"], doc,
                             monkeypatch, capsys)
        assert code == 0
        assert len(checks) == 1

    def test_verdicts_match_classify(self, monkeypatch, capsys):
        for form in enumerate_symmetric_forms(3, 5):
            doc = serialize.dumps(serialize.finite_form_to_json(form))
            code, out, _ = run_cli(["linking", "--input", "-"], doc,
                                   monkeypatch, capsys)
            assert code == 0
            part = json.loads(out)["parts"][0]
            assert part["metabolic"] == classify(form, "metabolic"), doc
            assert part["hyperbolic"] == classify(form, "hyperbolic"), doc


# orders and primes with no factor below the trial-division bound
HOSTILE_LINKING_DOCS = [
    '{"alpha": [[2305843009213693951]], "epsilon": 1}',
    '{"prime": 2305843009213693951, "orders": [1], '
    '"gram": [["1/2305843009213693951"]], "epsilon": 1}',
]


@pytest.mark.parametrize("doc", HOSTILE_LINKING_DOCS,
                         ids=["boundary", "finite-form"])
def test_unfactorable_order_exits_3(doc, monkeypatch, capsys):
    code, _, err = run_cli(["linking", "--input", "-"], doc,
                           monkeypatch, capsys)
    assert code == 3
    assert "cannot factor 2305843009213693951" in err


# integer fields given as floats or booleans, which int() would truncate
# or read as 0 and 1
BAD_INTEGER_DOCS = [
    ("linking", '{"prime": 3.9, "orders": [2], "gram": [["1/9"]], '
                '"epsilon": 1}'),
    ("linking", '{"prime": 3, "orders": [2.0], "gram": [["1/9"]], '
                '"epsilon": 1}'),
    ("linking", '{"prime": 3, "orders": [2], "gram": [["1/9"]], '
                '"epsilon": true}'),
    ("oracle", '{"prime": 3.9, "orders": [2], "gram": [["1/9"]], '
               '"epsilon": 1}'),
    ("linking", '{"alpha": [[4.5]], "epsilon": 1}'),
    ("linking", '{"alpha": [[true]], "epsilon": 1}'),
    ("linking", '{"alpha": [[0, 3], [-3, 0]], "epsilon": -1.2}'),
    ("analyze", '{"psi": [[-1, 1], [0, -1]], "epsilon": -1.2}'),
    ("analyze", '{"psi": [[0, 1], [0, 0]], "epsilon": true}'),
    ("analyze", '{"psi": [[-1, 1], [0, -1]], "epsilon": -1, '
                '"dimension_hint": 1.5}'),
]


@pytest.mark.parametrize("command,doc", BAD_INTEGER_DOCS)
def test_integer_fields_refuse_floats_and_booleans(command, doc,
                                                   monkeypatch, capsys):
    code, _, err = run_cli([command, "--input", "-"], doc,
                           monkeypatch, capsys)
    assert code == 2
    assert "input error" in err


# a string where a matrix or a list belongs, read character by character
# ("9" as [[9]], "12" as the orders [1, 2]), and documents that are not
# objects; each of the first three exited 0 with a wrong answer
BAD_SHAPE_DOCS = [
    ("linking", '{"alpha": "9", "epsilon": 1}'),
    ("linking", '{"prime": 3, "orders": "12", '
                '"gram": [["1/3", "0"], ["0", "1/9"]], "epsilon": 1}'),
    ("oracle", '{"prime": 3, "orders": "12", '
               '"gram": [["1/3", "0"], ["0", "1/9"]], "epsilon": 1}'),
    ("linking", '{"alpha": ["12"], "epsilon": 1}'),
    ("linking", '["prime", "alpha"]'),
    ("linking", '"alpha"'),
    ("linking", '"prime"'),
    ("linking", '7'),
    ("linking", 'null'),
]


@pytest.mark.parametrize("command,doc", BAD_SHAPE_DOCS)
def test_strings_and_non_objects_exit_2(command, doc, monkeypatch, capsys):
    code, out, err = run_cli([command, "--input", "-"], doc,
                             monkeypatch, capsys)
    assert code == 2 and out == ""
    assert "input error" in err


# boundary documents whose epsilon is no sign: the first exited 0 with no
# parts, the second 3 ("singular"), before boundary_of_form checked it
BAD_EPSILON_BOUNDARY_DOCS = [
    '{"alpha": [], "epsilon": 5}',
    '{"alpha": [[0]], "epsilon": 7}',
]


@pytest.mark.parametrize("doc", BAD_EPSILON_BOUNDARY_DOCS)
def test_boundary_epsilon_must_be_a_sign(doc, monkeypatch, capsys):
    code, out, err = run_cli(["linking", "--input", "-"], doc,
                             monkeypatch, capsys)
    assert code == 2 and out == ""
    assert "input error: epsilon must be +1 or -1" in err


NESTED_DOC = "[" * 50000 + "]" * 50000


@pytest.mark.parametrize("source", ["stdin", "file"])
@pytest.mark.parametrize("command", ["analyze", "linking", "oracle"])
def test_deeply_nested_document_exits_2(command, source, tmp_path,
                                        monkeypatch, capsys):
    # json.load recurses once per bracket, so this raises RecursionError
    if source == "stdin":
        code, _, err = run_cli([command, "--input", "-"], NESTED_DOC,
                               monkeypatch, capsys)
    else:
        path = tmp_path / "nested.json"
        path.write_text(NESTED_DOC)
        code, _, err = run_cli([command, "--input", str(path)],
                               capsys=capsys)
    assert code == 2
    assert "input error" in err and "nests too deeply" in err


def test_integer_fields_accept_integral_strings():
    form = serialize.finite_form_from_json(
        {"prime": "3", "orders": ["4/2"], "gram": [["1/9"]], "epsilon": "1"})
    assert (form.prime, form.orders, form.epsilon) == (3, (2,), 1)
    with pytest.raises(ValueError):
        serialize.parse_int("5/2")


# each document with X in one scalar: a psi entry or epsilon (analyze), a
# gram entry or alpha (linking), a gram entry (oracle)
HOSTILE_SCALAR_DOCS = [
    ("analyze", '{"psi": [[X, 1], [0, -1]], "epsilon": -1}'),
    ("analyze", '{"psi": [[-1, 1], [0, -1]], "epsilon": X}'),
    ("linking", '{"prime": 3, "orders": [2], "gram": [[X]], "epsilon": 1}'),
    ("linking", '{"alpha": [[X]], "epsilon": 1}'),
    ("oracle", '{"prime": 3, "orders": [2], "gram": [[X]], "epsilon": 1}'),
]


@pytest.mark.parametrize("command,doc", HOSTILE_SCALAR_DOCS)
def test_zero_denominators_exit_2(command, doc, monkeypatch, capsys):
    # Fraction("1/0") raises ZeroDivisionError, once mapped to exit 3
    code, out, err = run_cli([command, "--input", "-"],
                             doc.replace("X", '"1/0"'), monkeypatch, capsys)
    assert code == 2 and out == ""
    assert "input error" in err and "'1/0' is not an integer" in err


@pytest.mark.parametrize("command,doc", HOSTILE_SCALAR_DOCS)
def test_exponent_strings_exit_2(command, doc, monkeypatch, capsys):
    # 9 bytes that Fraction reads as a million-digit integer
    code, out, err = run_cli([command, "--input", "-"],
                             doc.replace("X", '"1e999999"'), monkeypatch,
                             capsys)
    assert code == 2 and out == ""
    assert "input error" in err and "'1e999999'" in err


@pytest.mark.parametrize("text", ["1e999999", "1E3", "2.5", "1.", ".5",
                                  "-1e-3/7", "1/2e3", "inf", "nan", "",
                                  "1_000", "0x10", "1/-2"])
def test_decimals_and_exponents_are_refused(text):
    # Fraction(str) reads these; "1e999999" is a million-digit integer
    with pytest.raises(ValueError, match="not an integer or a 'num/den'"):
        serialize.parse_fraction(text)


@pytest.mark.parametrize("text", ["1/0", "-3/00", " 5 / 0 ", 2.0, 1.5,
                                  True])
def test_zero_denominators_floats_and_bools_are_refused(text):
    with pytest.raises(ValueError, match="not an integer or a 'num/den'"):
        serialize.parse_fraction(text)


@pytest.mark.parametrize("text,want", [
    ("7", 7), (" -3 ", -3), ("+4/6", Fraction(2, 3)), ("10/007",
                                                        Fraction(10, 7)),
    (12, 12), ("0/5", 0), (2**80, 2**80)])
def test_integers_and_ratios_are_read(text, want):
    assert serialize.parse_fraction(text) == want


class TestOracle:
    def test_z4(self, monkeypatch, capsys):
        code, out, _ = run_cli(["oracle", "--input", "-"],
                               Z4_DOC, monkeypatch, capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "metabolic, not split metabolic"
        assert all(doc["results"][m]["exhausted"]
                   for m in ("any", "split", "complementary_pair"))

    def test_hyperbolic_verdict(self, monkeypatch, capsys):
        doc = ('{"prime": 3, "orders": [1, 1], '
               '"gram": [["0", "1/3"], ["1/3", "0"]], "epsilon": 1}')
        code, out, _ = run_cli(["oracle", "--input", "-"],
                               doc, monkeypatch, capsys)
        assert code == 0
        assert json.loads(out)["verdict"].startswith("hyperbolic")

    def test_one_search_for_all_modes(self, monkeypatch, capsys,
                                      isotropic_searches):
        code, out, _ = run_cli(["oracle", "--input", "-", "--format", "text"],
                               Z4_DOC, monkeypatch, capsys)
        assert code == 0
        assert out.startswith("verdict: metabolic, not split metabolic")
        assert len(isotropic_searches) == 1


# -- catalog --

class TestCatalog:
    def test_list(self, capsys):
        code = cli.main(["catalog"])
        out, _ = capsys.readouterr()
        assert code == 0
        names = [e["name"] for e in json.loads(out)["entries"]]
        assert names == ["figure-eight", "granny", "trefoil",
                         "trefoil-inverse-sum"]

    def test_entry_feeds_analyze(self, capsys):
        code = cli.main(["catalog", "--catalog", "granny"])
        out, _ = capsys.readouterr()
        assert code == 0
        knot = serialize.knot_from_json(json.loads(out))
        assert knot.rank == 4


class TestParserReuse:
    def test_commands_in_one_process_match_fresh_runs(self, monkeypatch,
                                                      capsys):
        # the parser is built once per process and reused; a command must
        # not see options or defaults left over from the one before it
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            wittkit.__file__)))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        runs = [(["analyze", "--input", "-", "--format", "text"], TREFOIL_DOC),
                (["linking", "--input", "-"], Z9_DOC),
                (["analyze", "--input", "-"], TREFOIL_DOC)]
        for args, doc in runs:
            code, out, err = run_cli(args, doc, monkeypatch, capsys)
            fresh = subprocess.run(
                [sys.executable, "-m", "wittkit.cli", *args], input=doc,
                env=env, capture_output=True, text=True, timeout=300)
            assert (code, out, err) == (fresh.returncode, fresh.stdout,
                                        fresh.stderr)


# -- pinned reports --

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_argv(path: Path) -> list:
    """`linking --search-bound 100000` for a finite form or an integral
    form's boundary, `analyze` for a knot document."""
    if {"prime", "alpha"} & json.loads(path.read_text()).keys():
        return ["linking", "--input", str(path), "--search-bound", "100000"]
    return ["analyze", "--input", str(path)]


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")),
                         ids=lambda p: p.stem)
def test_fixture_reports_are_pinned(path, capsys):
    # fixtures/reports/<name>.json is the CLI's output on fixtures/<name>.json;
    # a change to how the report is computed may not move one byte of it
    assert cli.main(fixture_argv(path)) == 0
    got = capsys.readouterr().out.encode()
    assert got == (FIXTURES / "reports" / path.name).read_bytes()


def mirror_rows(psi: list) -> list:
    """The Seifert matrix of K # -K, A (+) -A, for the Seifert matrix A of K."""
    return block_sum(psi, [[-x for x in row] for row in psi])


def scrambled_psi(psi: list, genus: int) -> list:
    """P^T (A (+) -A) P for the Seifert matrix A of a genus-g knot: P starts
    as the identity, and with rng = random.Random(f"scramble-{g}") each
    column i < 2g gains column 2g + rng.randrange(2g).  P is unimodular, so
    the form is A (+) -A in another basis."""
    rng = random.Random(f"scramble-{genus}")
    return change_of_basis(mirror_rows(psi), [
        (i, 2 * genus + rng.randrange(2 * genus), 1)
        for i in range(2 * genus)])


def without_witnesses(block: dict, scrambled: dict) -> tuple:
    """The two reports with name, witnesses and the witness note taken
    out, after checking that only the block sum has witnesses."""
    block, scrambled = dict(block), dict(scrambled)
    assert scrambled.pop("witnesses") is None
    assert block.pop("witnesses")
    block["notes"] = block["notes"][:-1]
    assert block["notes"] == scrambled["notes"]
    del block["name"], scrambled["name"]
    return block, scrambled


@pytest.mark.parametrize("genus", [6, 10])
def test_scrambled_sums_report_as_block_sums(genus, monkeypatch, capsys):
    # the scrambled K # -K fixtures are K # -K of the pinned ladder knots in
    # a unimodular basis, an isometry, so their pinned reports are the
    # block-diagonal sum's but for the name and the witnesses, which
    # `analyze` finds only on a block-diagonal psi
    psi = json.loads((FIXTURES / f"scale-{genus}.json").read_text())["psi"]
    path = (FIXTURES if genus == 6 else FIXTURES / "scrambled"
            ) / f"scale-{genus}-scrambled.json"
    assert json.loads(path.read_text())["psi"] == scrambled_psi(psi, genus)
    pinned = json.loads((path.parent / "reports" / path.name).read_text())
    doc = json.dumps({"name": "K # -K", "epsilon": -1,
                      "psi": mirror_rows(psi)})
    code, out, _ = run_cli(["analyze", "--input", "-"], doc, monkeypatch,
                           capsys)
    assert code == 0
    block, scrambled = without_witnesses(json.loads(out), pinned)
    assert block == scrambled


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_reports_are_pinned(name, capsys):
    # fixtures/reports/catalog-<name>.json is `analyze --catalog <name>`;
    # unlike the fixture knots, these level forms tell a wrong residue
    # involution from the right one
    assert cli.main(["analyze", "--catalog", name]) == 0
    got = capsys.readouterr().out.encode()
    assert got == (FIXTURES / "reports" / f"catalog-{name}.json").read_bytes()


@pytest.mark.parametrize("name", ["e8", "mixed-factors", "mixed-5-6"])
def test_text_reports_are_pinned(name, capsys):
    # fixtures/reports/<name>.txt is the `--format text` output on
    # fixtures/<name>.json: mixed-factors prints factors with fractional
    # coefficients and a conjugate-pair note, e8 zero coefficients and a
    # rochlin line, mixed-5-6 a linking summary with oracle witnesses
    path = FIXTURES / f"{name}.json"
    assert cli.main(fixture_argv(path) + ["--format", "text"]) == 0
    got = capsys.readouterr().out.encode()
    assert got == (FIXTURES / "reports" / f"{name}.txt").read_bytes()


# -- selftest --

class TestSelftest:
    def test_all_anchors_pass(self, capsys):
        code = cli.main(["selftest"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert "FAIL" not in out
        assert "all anchors pass" in out

    def test_each_anchor_prints_its_time(self, capsys):
        assert cli.main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [name for name, _ in cli._selftest_anchors(Fraction(1, 8))]
        assert len(lines) == len(names) + 1
        for line, name in zip(lines, names):
            assert re.fullmatch(rf"PASS {name} \(\d+\.\d ms\)", line), line
        assert lines[-1] == "selftest: all anchors pass"

    def test_failing_anchor_prints_its_time_and_reason(self, monkeypatch,
                                                       capsys):
        monkeypatch.setattr("wittkit.laurent_forms.SIGMA_SIGN", -1)
        assert cli.main(["selftest"]) == 1
        out = capsys.readouterr().out
        assert re.search(r"^FAIL lt-consistency \(\d+\.\d ms\): jump ",
                         out, re.M), out

    def test_coarse_precision_still_passes(self, capsys):
        # the floor is a starting width; certification refines past it
        code = cli.main(["selftest", "--precision", "1/4"])
        out, _ = capsys.readouterr()
        assert code == 0

    def test_corrupted_calibration_fails(self, monkeypatch, capsys):
        monkeypatch.setattr("wittkit.laurent_forms.SIGMA_SIGN", -1)
        code = cli.main(["selftest"])
        out, _ = capsys.readouterr()
        assert code == 1
        assert "FAIL lt-consistency" in out

    def test_corrupted_calibration_fails_under_optimize(self):
        # python -O strips assert statements; the anchors must survive it
        src = os.path.dirname(os.path.dirname(os.path.abspath(
            wittkit.__file__)))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        code = ("import sys\n"
                "import wittkit.laurent_forms as lf\n"
                "lf.SIGMA_SIGN = -1\n"
                "from wittkit import cli\n"
                "sys.exit(cli.main(['selftest']))\n")
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 1
        assert "FAIL lt-consistency" in proc.stdout
