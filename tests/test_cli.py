import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfsat
from surfsat import CompactifiedSurface
from surfsat.cli import COMMANDS, _plain_argv, build_parser, main
from surfsat.elliptic import EXACT_BITS_BUDGET
from surfsat.errors import InputError
from surfsat.schema import (
    Document,
    document_to_json,
    load_document,
    parse_document,
    rational_to_json,
)

from support import (
    oracle_contract,
    oracle_ldl,
    random_configuration,
    random_contraction_setup,
    windmill_claims_document,
)

SAMPLES = Path(__file__).resolve().parent.parent / "docs" / "samples"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_affdim_zero_verdict(self, capsys):
        code, out, _ = run(
            capsys, "affdim", SAMPLES / "hironaka9_nontorsion.json"
        )
        assert code == 0
        assert "verdict: zero" in out

    def test_saturate_plan_contracts_cubic(self, capsys):
        code, out, _ = run(capsys, "saturate", SAMPLES / "n10.json")
        assert code == 0
        assert "verdict: not-saturated" in out
        assert "plan.contract[0]: C" in out

    def test_affdim_indefinite_is_exit_two(self, capsys):
        code, out, _ = run(capsys, "affdim", SAMPLES / "serre_like.json")
        assert code == 2
        assert "verdict: one-or-zero" in out

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(capsys, "affdim", SAMPLES / "does_not_exist.json")
        assert code == 1
        assert "error" in err

    def test_nul_byte_in_the_path_is_input_error(self, capsys):
        # no OS argv holds a NUL, but a caller of main can pass one
        code, out, err = run(capsys, "analyze", "a\x00b.json")
        assert (code, out) == (1, "")
        assert err == "error: cannot read a\x00b.json: embedded null byte\n"

    def test_deeply_nested_json_is_input_error(self, capsys, tmp_path):
        # the JSON decoder recurses once per level of nesting
        path = tmp_path / "deep.json"
        path.write_text('{"curves": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code, out, err = run(capsys, "analyze", path)
        assert (code, out) == (1, "")
        assert err == f"error: invalid JSON in {path}: nested too deeply\n"

    def test_inconsistent_claims_are_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "validate", SAMPLES / "three_disjoint_claims.json"
        )
        assert code == 1
        assert "verdict: inconsistent" in out
        assert "disjoint" in out

    @pytest.mark.parametrize("command", ["saturate", "affdim", "analyze"])
    def test_claim_on_contracted_component_is_exit_one(
        self, capsys, tmp_path, command
    ):
        doc = tmp_path / "claim_on_contracted.json"
        doc.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "curves": [
                        {"name": "E", "self": -2},
                        {"name": "H", "self": 1},
                    ],
                    "intersections": [[0, 1, 1]],
                    "boundary": ["E"],
                    "false_fibre_claims": [
                        {"subject": ["E"], "certificate": "user-asserted"}
                    ],
                }
            )
        )
        code, out, err = run(capsys, command, doc)
        assert code == 1
        assert out == ""
        assert "overlaps a contracted component" in err

    def test_schema_violation_names_field(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"curves": [{"name": "A"}]}))
        code, _, err = run(capsys, "affdim", bad)
        assert code == 1
        assert "curves[0].self" in err

    @pytest.mark.parametrize("kind", [["user-asserted"], {"kind": "user-asserted"}])
    def test_unhashable_certificate_kind_is_input_error(self, capsys, tmp_path, kind):
        # a list or object kind is an unknown kind, not a crash
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "curves": [{"name": "A", "self": 0}],
                    "false_fibre_claims": [
                        {"subject": ["A"], "certificate": {"kind": kind}}
                    ],
                }
            )
        )
        code, out, err = run(capsys, "validate", bad)
        assert code == 1
        assert out == ""
        assert err.startswith(
            "error: false_fibre_claims[0].certificate.kind: unknown certificate kind "
        )
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="the interpreter has no limit on integer-string conversion",
)
class TestOverLongIntegers:
    """An integer past the interpreter's integer-string conversion limit,
    read or printed, ends in an input error that names the limit, never
    in a traceback; the process-wide limit is left alone."""

    @pytest.mark.parametrize("fmt", ["human", "json"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_long_literal_in_the_document(self, capsys, tmp_path, command, fmt):
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "long.json"
        path.write_text(
            '{"curves": [{"name": "E", "self": -' + "9" * 5000 + '}], '
            '"boundary": ["E"]}'
        )
        code, out, err = run(capsys, command, path, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == (
            f"error: cannot read {path}: an integer in it has more than "
            f"{limit} digits, the interpreter's limit for converting text to "
            "integers\n"
        )
        assert sys.get_int_max_str_digits() == limit

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_long_number_in_the_result(self, capsys, tmp_path, fmt):
        # contracting E pulls C back with coefficient 10^4000 / 2, and C's
        # induced self-intersection has about 8000 digits
        limit = sys.get_int_max_str_digits()
        path = tmp_path / "meeting.json"
        doc = {
            "curves": [{"name": "E", "self": -2}, {"name": "C", "self": -1}],
            "intersections": [[0, 1, "1" + "0" * 4000]],
            "boundary": ["E"],
        }
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "mumford", path, "--format", fmt)
        assert (code, out) == (1, "")
        assert err == (
            f"error: a number in the result has more than {limit} digits, the "
            "interpreter's limit for converting integers to text\n"
        )
        assert sys.get_int_max_str_digits() == limit

    def test_other_value_errors_still_raise(self, monkeypatch, tmp_path):
        # only the conversion limit is an input error; a ValueError from a
        # fault in a command is not hidden behind an error message
        def broken(doc):
            raise ValueError("a fault")

        monkeypatch.setitem(COMMANDS, "fibre", broken)
        with pytest.raises(ValueError, match="a fault"):
            main(["fibre", str(SAMPLES / "n10.json")])


class TestUsageErrors:
    # a usage error is an input error (1), never the indefinite-verdict
    # code 2 that argparse exits with by default
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["bogus", SAMPLES / "n10.json"],
                "argument command: invalid choice: 'bogus'",
            ),
            (["analyze"], "the following arguments are required: input"),
            (
                ["analyze", SAMPLES / "n10.json", "--format", "xml"],
                "argument --format: invalid choice: 'xml'",
            ),
            (["analyze", SAMPLES / "n10.json", "--colour"], "unrecognized arguments"),
        ],
    )
    def test_usage_error_is_exit_one(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage: surfsat ")
        assert f"surfsat: error: {message}" in err

    def test_help_is_exit_zero(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0
        assert out.startswith("usage: surfsat ") and "analysis to run" in out
        assert err == ""


# Runs each argv list in turn with ``main`` in one interpreter, ending each
# call's stdout and stderr with a marker.
_IN_ONE_PROCESS = """
import json, sys
from surfsat.cli import main
for argv in json.loads(sys.argv[1]):
    code = main(argv)
    sys.stdout.write(f"@@exit {code}@@\\n")
    sys.stdout.flush()
    sys.stderr.write("@@end@@\\n")
    sys.stderr.flush()
"""


class TestParserReuse:
    def cli_env(self):
        src = str(Path(surfsat.__file__).resolve().parent.parent)
        # a fixed width, so help and usage wrap the same in every process
        return {**os.environ, "PYTHONPATH": src, "COLUMNS": "80"}

    def test_calls_in_one_process_match_fresh_interpreters(self):
        n10 = str(SAMPLES / "n10.json")
        serre = str(SAMPLES / "serre_like.json")
        calls = [
            ["bogus", n10], ["analyze", n10],
            ["saturate", serre, "--verbose"], ["saturate", serre],
            ["analyze", n10, "--format", "json"], ["analyze", n10],
            ["--help"], ["--help"],
        ]
        env = self.cli_env()
        proc = subprocess.run(
            [sys.executable, "-c", _IN_ONE_PROCESS, json.dumps(calls)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        outs = proc.stdout.split("@@\n")[:-1]
        errs = proc.stderr.split("@@end@@\n")[:-1]
        assert len(outs) == len(errs) == len(calls)
        fresh = {}
        for argv, out, err in zip(calls, outs, errs):
            key = tuple(argv)
            if key not in fresh:
                fresh[key] = subprocess.run(
                    [sys.executable, "-m", "surfsat.cli", *argv],
                    capture_output=True, text=True, env=env, timeout=120,
                )
            alone = fresh[key]
            out, code = out.rsplit("@@exit ", 1)
            assert (out, err, int(code)) == (
                alone.stdout, alone.stderr, alone.returncode
            ), argv
        assert "unrecognized arguments: --verbose" in errs[2] and errs[3] == ""
        assert [fresh[tuple(c)].returncode for c in calls[::2]] == [1, 1, 0, 0]

    def test_parser_is_built_on_first_call_not_at_import(self):
        script = (
            "import surfsat.cli as cli; "
            "print(cli.build_parser.cache_info().currsize); "
            "cli.build_parser(); cli.build_parser(); "
            "print(cli.build_parser.cache_info().misses)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=self.cli_env(), timeout=120,
        )
        assert proc.stdout.split() == ["0", "1"], proc.stderr


class TestPlainArgv:
    """``main`` reads ``COMMAND INPUT`` and ``COMMAND INPUT --format FMT``
    itself and hands every other argv to the parser."""

    WORDS = [
        *COMMANDS, "bogus", "Analyze", "human", "json", "xml", "--format",
        "--format=json", "--fo", "--form", "-h", "--help", "--", "-", "-x",
        "-1", "", "doc.json", "a b.json", "--colour", "x=y",
    ]

    def test_every_plain_argv_reads_as_the_parser_reads_it(self):
        rng = random.Random(2510)
        parser = build_parser()
        shapes = {2: 0, 4: 0}
        for _ in range(6000):
            argv = [rng.choice(self.WORDS) for _ in range(rng.randint(0, 5))]
            # lean towards the two plain shapes
            if argv and rng.random() < 0.6:
                argv[0] = rng.choice(sorted(COMMANDS))
            if len(argv) > 2 and rng.random() < 0.6:
                argv[2] = "--format"
            if len(argv) > 3 and rng.random() < 0.6:
                argv[3] = rng.choice(["human", "json"])
            plain = _plain_argv(argv)
            if plain is not None:
                args = parser.parse_args(argv)
                assert plain == (args.command, args.input, args.format), argv
                shapes[len(argv)] += 1
        assert min(shapes.values()) > 100, shapes

    def test_other_argv_read_as_before(self, capsys):
        # each argv against the plain argv the parser reads it as, or the
        # help or usage error the parser prints
        n10 = str(SAMPLES / "n10.json")
        human = run(capsys, "analyze", n10)
        as_json = run(capsys, "analyze", n10, "--format", "json")
        assert human[0] == as_json[0] == 0 and human[1] != as_json[1]
        for argv, want in [
            (["analyze", n10, "--format=json"], as_json),
            (["analyze", n10, "--fo", "json"], as_json),
            (["--format", "json", "analyze", n10], as_json),
            (["analyze", "--format", "json", n10], as_json),
            (["analyze", "--", n10], human),
            (["--", "analyze", n10], human),
        ]:
            assert _plain_argv(argv) is None, argv
            assert run(capsys, *argv) == want, argv
        for argv in (["-h"], ["--help"], ["analyze", n10, "-h"]):
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "") and out.startswith("usage: surfsat ")
        for argv, message in [
            (["analyze", "-x"], "the following arguments are required: input"),
            (["analyze"], "the following arguments are required: input"),
            ([], "the following arguments are required: command, input"),
            (["analyze", n10, "--format", "json", "extra"],
             "unrecognized arguments: extra"),
            (["analyze", n10, "--format"], "argument --format: expected one argument"),
        ]:
            assert _plain_argv(argv) is None, argv
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "") and err.startswith("usage: surfsat ")
            assert err.endswith(f"surfsat: error: {message}\n"), argv
        # after "--" an input may start with "-": it is read as a file name
        code, out, err = run(capsys, "analyze", "--", "-x")
        assert (code, out) == (1, "")
        assert err == (
            "error: cannot read -x: [Errno 2] No such file or directory: '-x'\n"
        )

    def test_a_plain_call_leaves_argparse_unloaded(self):
        n10 = str(SAMPLES / "n10.json")
        script = (
            "import sys; from surfsat.cli import main; "
            f"codes = [main(['analyze', {n10!r}]), "
            f"main(['fibre', {n10!r}, '--format', 'json'])]; "
            "print(codes, 'argparse' in sys.modules, 'gettext' in sys.modules)"
        )
        src = str(Path(surfsat.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.stdout.splitlines()[-1] == "[0, 0] False False", proc.stderr


class TestClosedPipe:
    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_closed_stdout_is_exit_one_without_traceback(self, fmt):
        # as in `surfsat analyze n10.json | head -1`, but with the reading
        # end closed before the first write, so the write always fails
        src = str(Path(surfsat.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "surfsat.cli", "analyze",
             str(SAMPLES / "n10.json"), "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


class TestCommands:
    def test_hironaka_from_elliptic_section(self, capsys):
        code, out, _ = run(
            capsys, "hironaka", SAMPLES / "hironaka9_nontorsion.json"
        )
        assert code == 0
        assert "boundary_self_intersection: 0" in out
        assert "obstruction.verdict: obstruction-found" in out
        assert "verdict: zero" in out

    def test_hironaka_pencil_gives_one(self, capsys):
        code, out, _ = run(capsys, "hironaka", SAMPLES / "hironaka9_pencil.json")
        assert code == 0
        assert "verdict: one" in out
        assert "obstruction.verdict: inconclusive" in out

    def test_hironaka_pencil_with_a_heavy_point_is_not_certified(
        self, capsys, tmp_path
    ):
        # each point is blown up once, so the normal bundle of C carries the
        # plain sum, which is O on the pencil's base points; weighting the
        # first point by 2 makes the weighted sum P, non-torsion, and no
        # certificate of it
        doc = json.loads((SAMPLES / "hironaka9_pencil.json").read_text())
        doc["fibration_asserted"] = False
        doc["elliptic"]["points"][0]["m"] = 2
        path = tmp_path / "pencil_heavy.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "hironaka", path)
        assert code == 2
        assert "obstruction.verdict: obstruction-found" in out
        assert "verdict: one-or-zero" in out
        assert "GroupLawObstruction" not in out

    def test_hironaka_names_the_sum_it_certifies_from(self, capsys, tmp_path):
        # P, 2P, 3P, 4P, 5P, -P, -2P, -3P, -10P with the first weight 2:
        # the weighted sum is O, and C is certified from the plain sum -P
        doc = json.loads((SAMPLES / "hironaka9_pencil.json").read_text())
        doc["fibration_asserted"] = False
        doc["elliptic"]["points"][0]["m"] = 2
        minus_ten = surfsat.scalar_mul(
            surfsat.WeierstrassCurve(a3=1, a4=-1), -10, surfsat.ECPoint.affine(0, 0)
        )
        doc["elliptic"]["points"][-1] = {
            "x": str(minus_ten.x), "y": str(minus_ten.y), "m": 1
        }
        path = tmp_path / "pencil_moved.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "hironaka", path)
        assert code == 0
        assert "verdict: zero" in out
        assert "obstruction.torsion: Torsion(1)" in out
        assert "obstruction.verdict: inconclusive" in out
        reference = "false_fibre_claim.certificate.reference: "
        assert (
            f"{reference}plain sum of the blown-up points is non-torsion "
            "in the cubic's group law"
        ) in out
        # with every weight 1 the weighted sum is the plain sum
        code, out, _ = run(capsys, "hironaka", SAMPLES / "hironaka9_nontorsion.json")
        assert code == 0
        assert (
            f"{reference}weighted sum of the blown-up points is non-torsion "
            "in the cubic's group law"
        ) in out

    def test_hironaka_n10(self, capsys):
        code, out, _ = run(capsys, "hironaka", SAMPLES / "n10.json")
        assert code == 0
        assert "boundary_self_intersection: -1" in out
        assert "scheme_saturation.verdict: scheme-saturated" in out
        assert "saturation.saturated: False" in out

    def test_fibre_classifies_components(self, capsys):
        code, out, _ = run(capsys, "fibre", SAMPLES / "serre_like.json")
        assert code == 0
        assert "components[0].verdict: fibre-type" in out
        assert "components[0].kernel.D: 1" in out
        assert "components[0].zariski.status: ok" in out

    def test_mumford_reports_pullbacks(self, capsys):
        code, out, _ = run(capsys, "mumford", SAMPLES / "n10.json")
        assert code == 0
        assert "verdict: contracted" in out
        # every exceptional curve picks up C with coefficient 1
        assert "pullbacks.E1.C: 1" in out

    def test_analyze_bundles_everything(self, capsys):
        code, out, _ = run(
            capsys, "analyze", SAMPLES / "ruled_two_sections.json"
        )
        assert code == 0
        assert "verdict: zero" in out
        assert "saturation.saturated: True" in out
        assert "components[1].verdict: fibre-type" in out

    def test_validate_reproduces_group_law_certificate(self, capsys):
        code, out, _ = run(
            capsys, "validate", SAMPLES / "hironaka9_nontorsion.json"
        )
        assert code == 0
        assert "verdict: consistent" in out

    def test_validate_catches_fake_certificate(self, capsys, tmp_path):
        doc = json.loads((SAMPLES / "hironaka9_nontorsion.json").read_text())
        # swap the points for a balanced (torsion) tuple: certificate is fake
        pencil = json.loads((SAMPLES / "hironaka9_pencil.json").read_text())
        doc["elliptic"] = pencil["elliptic"]
        bad = tmp_path / "fake.json"
        bad.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "validate", bad)
        assert code == 1
        assert "not reproducible" in out

    def test_mumford_prints_an_empty_object(self, capsys, tmp_path):
        # every curve is contracted, so no curve has a pullback: the human
        # report names the empty object as JSON does, as it names []
        path = tmp_path / "all_contracted.json"
        path.write_text(json.dumps({
            "curves": [{"name": "A", "self": -2}, {"name": "B", "self": -2}],
            "intersections": [[0, 1, 1]],
            "boundary": ["A", "B"],
        }))
        code, out, _ = run(capsys, "mumford", path)
        assert code == 0
        assert "pullbacks: {}" in out.splitlines()
        assert "induced_matrix.curves: []" in out.splitlines()
        assert "induced_matrix.entries: []" in out.splitlines()
        code, out, _ = run(capsys, "mumford", path, "--format", "json")
        assert code == 0
        assert json.loads(out)["pullbacks"] == {}
        assert json.loads(out)["induced_matrix"]["entries"] == []
        assert '"entries": []' in out

    def test_json_output_has_stable_keys(self, capsys):
        code, out, _ = run(
            capsys,
            "affdim",
            SAMPLES / "hironaka9_nontorsion.json",
            "--format",
            "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "zero"
        assert data["reasons"][0]["criterion"] == "fibre-type-boundary"
        assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"

    def test_every_verdict_names_a_criterion(self, capsys):
        for sample, command in [
            ("hironaka9_nontorsion.json", "affdim"),
            ("serre_like.json", "affdim"),
            ("n10.json", "saturate"),
            ("n10.json", "hironaka"),
            ("serre_like.json", "fibre"),
            ("n10.json", "mumford"),
        ]:
            code, out, _ = run(
                capsys, command, SAMPLES / sample, "--format", "json"
            )
            assert code in (0, 2)
            assert "criterion" in out


def _rational_json(value):
    value = Fraction(value)
    if value.denominator == 1:
        return value.numerator
    return f"{value.numerator}/{value.denominator}"


def hodge_problem(plus):
    return (
        f"the intersection form has {plus} positive directions; the Hodge "
        "index theorem allows at most one on a surface"
    )


def hodge_case(rng):
    """A random configuration and boundary, and the positive index of its
    whole Gram by the former elimination, ``oracle_ldl``."""
    config = random_configuration(
        rng, rng.randint(1, 8), diag_hi=rng.choice((-1, 0, 1, 2)), edge_hi=1
    )
    boundary = {i for i in range(config.n) if rng.random() < 0.4}
    return Document(CompactifiedSurface(config, boundary)), oracle_ldl(config.gram)[3][0]


class TestHodgeIndex:
    """``validate`` refuses an intersection form with two or more positive
    directions: on a surface it has exactly one (Hodge index theorem)."""

    def test_two_positive_curves_that_meet_nowhere(self, capsys, tmp_path):
        path = tmp_path / "two_positive.json"
        path.write_text(json.dumps({
            "curves": [
                {"name": "A", "self": 1}, {"name": "B", "self": 1},
                {"name": "C", "self": -2},
            ],
            "boundary": ["A"],
        }))
        code, out, _ = run(capsys, "validate", path)
        assert code == 1
        assert out.splitlines() == [
            "command: validate", "verdict: inconsistent",
            f"problems: {hodge_problem(2)}",
        ]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_matches_the_positive_index_of_the_former_elimination(self, rng):
        doc, plus = hodge_case(rng)
        problems = COMMANDS["validate"](doc)["problems"]
        assert [p for p in problems if "Hodge" in p] == (
            [hodge_problem(plus)] if plus > 1 else []
        )

    def test_both_sides_are_drawn(self):
        rng = random.Random(163)
        drawn = {hodge_case(rng)[1] > 1 for _ in range(100)}
        assert drawn == {False, True}


class TestFractionalMumford:
    """CLI ``mumford`` on documents with "p/q" self-intersections and
    meeting values, against the Gauss-Jordan pullbacks and pairings of
    ``oracle_contract``, in both formats."""

    @staticmethod
    def documents():
        rng = random.Random(113)
        while True:
            config, exceptional, _ = random_contraction_setup(rng)
            gram = config.gram
            diagonal = [gram.entry(i, i) for i in range(config.n)]
            meetings = [
                (i, j, v)
                for i in range(config.n)
                for j, v in gram.off_diagonal(i).items()
                if i < j
            ]
            if all(x.denominator == 1 for x in diagonal) or all(
                v.denominator == 1 for _, _, v in meetings
            ):
                continue
            names = [node.name for node in config.nodes]
            doc = {
                "curves": [
                    {"name": name, "self": str(d)}
                    for name, d in zip(names, diagonal)
                ],
                "intersections": [[i, j, str(v)] for i, j, v in meetings],
                "boundary": [names[i] for i in sorted(exceptional)],
            }
            yield doc, config, exceptional

    def test_against_the_oracle_in_both_formats(self, capsys, tmp_path):
        start = time.perf_counter()
        path = tmp_path / "doc.json"
        documents = self.documents()
        for _ in range(120):
            doc, config, exceptional = next(documents)
            path.write_text(json.dumps(doc))
            remaining, rows, pullbacks = oracle_contract(config, exceptional)
            names = [config.nodes[i].name for i in remaining]
            expected_pullbacks = {
                config.nodes[i].name: {
                    config.nodes[j].name: _rational_json(c)
                    for j, c in pulled.coefficients.items()
                }
                for i, pulled in zip(remaining, pullbacks)
            }
            expected_rows = [[_rational_json(x) for x in row] for row in rows]
            code, out, err = run(capsys, "mumford", path, "--format", "json")
            assert (code, err) == (0, "")
            report = json.loads(out)
            assert report["pullbacks"] == expected_pullbacks
            assert report["induced_matrix"] == {
                "curves": names, "entries": expected_rows
            }
            code, out, err = run(capsys, "mumford", path)
            assert (code, err) == (0, "")
            lines = out.splitlines()
            assert [line for line in lines if line.startswith("pullbacks.")] == [
                f"pullbacks.{a}.{b}: {v}"
                for a in sorted(expected_pullbacks)
                for b, v in sorted(expected_pullbacks[a].items())
            ]
            assert [
                line for line in lines if line.startswith("induced_matrix.entries")
            ] == [
                f"induced_matrix.entries[{k}]: {', '.join(map(str, row))}"
                for k, row in enumerate(expected_rows)
            ]
        elapsed = time.perf_counter() - start
        assert elapsed < 2.0, f"120 documents took {elapsed:.2f}s"

    def test_two_curves(self, capsys, tmp_path):
        # A^2 = -3/2, B^2 = 1/2, A.B = 1/2: B pulls back to B + A/3, and
        # B^2 on the contracted surface is 1/2 + (1/2)(1/3) = 2/3
        path = tmp_path / "two.json"
        path.write_text(json.dumps({
            "curves": [
                {"name": "A", "self": "-3/2"}, {"name": "B", "self": "1/2"}
            ],
            "intersections": [[0, 1, "1/2"]],
            "boundary": ["A"],
        }))
        code, out, _ = run(capsys, "mumford", path)
        assert code == 0
        assert "induced_matrix.entries[0]: 2/3" in out.splitlines()
        assert "pullbacks.B.A: 1/3" in out.splitlines()


def _multiple_of_p(k):
    """k P on y^2 + y = x^3 - x for P = (0, 0), as a JSON point."""
    curve = surfsat.WeierstrassCurve(a3=1, a4=-1)
    q = surfsat.scalar_mul(curve, k, surfsat.ECPoint.affine(0, 0))
    return {"x": rational_to_json(q.x), "y": rational_to_json(q.y)}


class TestHeavyMultiplicity:
    """Schema-valid documents whose weights are 10^18."""

    HEAVY = 10**18
    # the lcm of P's orders at the filter primes: 2K P - K P reduces to the
    # identity at each of them, and the joint sum forms about K P over Q
    K = lcm(16238, 32511, 16508)

    def write(self, tmp_path, sample, weighted):
        doc = json.loads((SAMPLES / sample).read_text())
        doc["elliptic"]["points"] = [
            dict(_multiple_of_p(k), m=m) for k, m in weighted
        ]
        path = tmp_path / f"heavy-{sample}"
        path.write_text(json.dumps(doc))
        return path

    def run_all(self, capsys, path):
        outputs = {}
        for command in sorted(COMMANDS):
            for fmt in ("human", "json"):
                start = time.perf_counter()
                code, out, err = run(capsys, command, path, "--format", fmt)
                elapsed = time.perf_counter() - start
                assert elapsed < 1.0, f"{command} took {elapsed:.2f}s"
                assert "Traceback" not in err
                outputs[command, fmt] = code, out
        return outputs

    def test_non_torsion_sum(self, capsys, tmp_path):
        weighted = [(k, self.HEAVY) for k in range(1, 11)]
        outputs = self.run_all(capsys, self.write(tmp_path, "n10.json", weighted))
        code, out = outputs["hironaka", "human"]
        assert code == 0
        assert "obstruction.torsion: NonTorsion" in out
        assert "scheme_saturation.verdict: scheme-saturated" in out

    def test_cancelling_heavy_pair_is_torsion(self, capsys, tmp_path):
        # P and -P at weight 10^18 and +-2P .. +-5P: the sum is exactly O,
        # and the joint sum forms no large multiple of P on the way
        weighted = [(1, self.HEAVY), (-1, self.HEAVY)]
        weighted += [(s * k, 1) for k in range(2, 6) for s in (1, -1)]
        outputs = self.run_all(capsys, self.write(tmp_path, "n10.json", weighted))
        code, out = outputs["hironaka", "human"]
        assert code == 2
        assert "obstruction.torsion: Torsion(1)" in out

    def test_budget_at_ten_points_is_unknown(self, capsys, tmp_path):
        # P at weight 2K, -P at weight K and +-2P .. +-5P: the sum K P is O at
        # every filter prime, and forming it runs past the bit budget
        weighted = [(1, 2 * self.K), (-1, self.K)]
        weighted += [(s * k, 1) for k in range(2, 6) for s in (1, -1)]
        outputs = self.run_all(capsys, self.write(tmp_path, "n10.json", weighted))
        code, out = outputs["hironaka", "human"]
        assert code == 2
        assert f"obstruction.torsion: Undecided(bits>{EXACT_BITS_BUDGET})" in out
        assert "obstruction.verdict: inconclusive" in out
        assert "verdict: unknown" in out.splitlines()[1]

    def test_budget_at_nine_points(self, capsys, tmp_path):
        weighted = [(1, 2 * self.K), (-1, self.K)]
        weighted += [(k, 1) for k in (2, 3, -5, 4, -4, 6, -6)]
        path = self.write(tmp_path, "hironaka9_nontorsion.json", weighted)
        outputs = self.run_all(capsys, path)
        code, out = outputs["hironaka", "human"]
        assert code == 2
        assert "verdict: one-or-zero" in out.splitlines()[1]
        assert f"obstruction.torsion: Undecided(bits>{EXACT_BITS_BUDGET})" in out
        # the sample's group-law claim on C cannot be reproduced
        code, out = outputs["validate", "human"]
        assert code == 1
        assert "verdict: inconsistent" in out
        assert (
            "the supplied weighted point sum is "
            f"Undecided(bits>{EXACT_BITS_BUDGET})"
        ) in out


class TestGoldenOutput:
    def test_affdim_human_output_is_stable(self, capsys):
        _, out, _ = run(capsys, "affdim", SAMPLES / "hironaka9_nontorsion.json")
        assert out == (
            "command: affdim\n"
            "verdict: zero\n"
            "reasons[0].criterion: fibre-type-boundary\n"
            "reasons[0].evidence: every boundary component (1) is of fibre type\n"
            "reasons[1].criterion: disjoint-false-fibres\n"
            "reasons[1].evidence: C: GroupLawObstruction\n"
        )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "name",
        [
            "hironaka9_nontorsion.json",
            "hironaka9_pencil.json",
            "n10.json",
            "serre_like.json",
            "ruled_two_sections.json",
            "three_disjoint_claims.json",
        ],
    )
    def test_parse_serialize_parse_is_identity(self, name):
        doc = load_document(SAMPLES / name)
        serialized = document_to_json(doc)
        again = parse_document(serialized)
        assert again == doc
        assert document_to_json(again) == serialized


class TestIntersectionListing:
    @staticmethod
    def pairwise(config):
        # every pair, as the listing was first written
        return [
            [i, j, rational_to_json(config.gram.entry(i, j))]
            for i in range(config.n)
            for j in range(i + 1, config.n)
            if config.gram.entry(i, j) != 0
        ]

    def test_matches_pairwise_listing(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(0, 9)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            meets = rng.sample(pairs, rng.randint(0, len(pairs)))
            rng.shuffle(meets)
            doc = parse_document(
                {
                    "curves": [
                        {"name": f"C{i}", "self": rng.randint(-3, 1)}
                        for i in range(n)
                    ],
                    "intersections": [
                        [j, i, f"{rng.randint(0, 3)}/{rng.randint(1, 2)}"]
                        if rng.random() < 0.5 else [i, j, rng.randint(0, 2)]
                        for i, j in meets
                    ],
                }
            )
            listed = document_to_json(doc)["intersections"]
            assert listed == self.pairwise(doc.surface.ambient)

    def test_budget_on_2000_curves(self):
        # a 1000-link chain with a curve on each link; listing every pair
        # took seconds
        n = 1000
        doc = parse_document(
            {
                "curves": [{"name": f"E{i}", "self": -2} for i in range(n)]
                + [{"name": f"C{i}", "self": 1} for i in range(n)],
                "intersections": [[i, i + 1, 1] for i in range(n - 1)]
                + [[i, n + i, 1] for i in range(n)],
            }
        )
        start = time.perf_counter()
        listed = document_to_json(doc)["intersections"]
        elapsed = time.perf_counter() - start
        assert len(listed) == 2 * n - 1
        assert elapsed < 0.1, f"document_to_json took {elapsed:.2f}s"


class TestClaimsBudget:
    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_400_claims_through_two_hubs(self, command, tmp_path, capsys):
        # no three of the claims are pairwise disjoint; trying every triple
        # took 24 s, and eliminating a hub first filled in its component.
        # Two triangles through one hub span a positive direction, which the
        # Hodge index theorem forbids beside the boundary 0-curve D
        doc = tmp_path / "claims.json"
        doc.write_text(json.dumps(windmill_claims_document(400, 2)))
        start = time.perf_counter()
        code, out, err = run(capsys, command, doc)
        elapsed = time.perf_counter() - start
        assert code == 1
        if command == "validate":
            assert out.splitlines()[1:] == [
                "verdict: inconsistent",
                "problems: the intersection form has 2 positive directions; "
                "the Hodge index theorem allows at most one on a surface",
            ]
        else:
            assert (out, err) == ("", (
                "error: the inner component of 401 curve(s) containing 'H0' has a "
                "positive direction beside a fibre-type boundary, which the "
                "Hodge index theorem forbids\n"
            ))
        assert elapsed < 1.0, f"{command} took {elapsed:.2f}s"

    def test_the_claims_are_checked_before_the_inner_curves(self, tmp_path, capsys):
        # three hubs: the disjoint triple of claims is reported, not the
        # positive direction of each hub's component
        doc = tmp_path / "claims.json"
        doc.write_text(json.dumps(windmill_claims_document(30, 3)))
        code, out, err = run(capsys, "analyze", doc)
        assert (code, out) == (1, "")
        assert err.startswith("error: three pairwise disjoint false-fibre claims")


def order_document(claimed):
    """The genus-1 0-curve Z is the boundary; A, B, C and D are inner
    0-curves, D meets Z once, and each name in ``claimed`` is a claim."""
    return {
        "curves": [{"name": "Z", "genus": 1, "self": 0}]
        + [{"name": name, "self": 0} for name in "ABCD"],
        "intersections": [[4, 0, 1]],
        "boundary": ["Z"],
        "false_fibre_claims": [
            {"subject": [name], "certificate": "user-asserted"} for name in claimed
        ],
    }


class TestClaimErrorOrder:
    # the claim rules run in a fixed order: each subject's verdict, then the
    # disjoint triple, then the kept boundary; D breaks the last rule first
    def test_the_triple_is_reported_before_a_claim_that_meets_the_boundary(
        self, tmp_path, capsys
    ):
        doc = tmp_path / "order.json"
        doc.write_text(json.dumps(order_document("DABC")))
        assert run(capsys, "affdim", doc) == (1, "", (
            "error: three pairwise disjoint false-fibre claims: A, B, C; at most "
            "two disjoint false fibres can exist\n"
        ))
        code, out, _ = run(capsys, "validate", doc)
        assert (code, out.splitlines()[1:]) == (1, [
            "verdict: inconsistent",
            "problems: three pairwise disjoint false-fibre claims: ['A']; ['B']; "
            "['C']",
        ])

    def test_without_a_triple_the_boundary_rule_is_reported(self, tmp_path, capsys):
        doc = tmp_path / "order.json"
        doc.write_text(json.dumps(order_document("DA")))
        assert run(capsys, "affdim", doc) == (1, "", (
            "error: claim subject ('D',) meets the boundary, so it is not a "
            "divisor inside the surface\n"
        ))


class TestHubFirstStarBudget:
    def test_analyze_on_a_star_of_2000_arms(self, tmp_path, capsys):
        # a hub of self-intersection -(n + 1) listed first, then n (-2)-arms,
        # all in the boundary; eliminating the hub first filled in every
        # pair of arms: 10 s at n = 400
        n = 2000
        doc = tmp_path / "star.json"
        doc.write_text(json.dumps({
            "curves": [{"name": "H", "self": -(n + 1)}]
            + [{"name": f"A{i}", "self": -2} for i in range(1, n + 1)],
            "intersections": [[0, i, 1] for i in range(1, n + 1)],
            "boundary": ["H"] + [f"A{i}" for i in range(1, n + 1)],
        }))
        start = time.perf_counter()
        code, out, _ = run(capsys, "analyze", doc)
        elapsed = time.perf_counter() - start
        assert (code, out.splitlines()[1]) == (0, "verdict: zero")
        assert "components[0].verdict: negative-definite" in out
        assert elapsed < 1.0, f"analyze took {elapsed:.2f}s"


class TestHyperbolicStepBudget:
    @pytest.mark.parametrize("command", ["fibre", "affdim"])
    def test_section_meeting_2000_fibres(self, command, tmp_path, capsys):
        # the boundary S + F1 + ... + Fn of a product ruled surface: S pairs
        # with F1 in a hyperbolic step whose update is empty; updating every
        # pair of the coupled rows took seconds
        n = 2000
        doc = tmp_path / "ruled.json"
        doc.write_text(
            json.dumps(
                {
                    "curves": [{"name": "S", "self": 0}]
                    + [{"name": f"F{i}", "self": 0} for i in range(1, n + 1)],
                    "intersections": [[0, i, 1] for i in range(1, n + 1)],
                    "boundary": ["S"] + [f"F{i}" for i in range(1, n + 1)],
                }
            )
        )
        start = time.perf_counter()
        code, out, _ = run(capsys, command, doc, "--format", "json")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert "not-negative-semidefinite" in out
        assert elapsed < 0.5, f"{command} took {elapsed:.2f}s"


class TestSchemaValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(InputError, match="unknown keys"):
            parse_document({"boundry": []})

    def test_unknown_curve_in_boundary(self):
        with pytest.raises(InputError, match="boundary"):
            parse_document(
                {"curves": [{"name": "A", "self": 0}], "boundary": ["B"]}
            )

    def test_float_rejected_with_path(self):
        with pytest.raises(InputError, match="curves\\[0\\].self"):
            parse_document({"curves": [{"name": "A", "self": 0.5}]})

    def test_string_rationals_accepted(self):
        doc = parse_document(
            {
                "curves": [{"name": "A", "self": "-1/2"}],
                "boundary": ["A"],
            }
        )
        from fractions import Fraction

        assert doc.surface.ambient.gram.entry(0, 0) == Fraction(-1, 2)

    def test_duplicate_intersection_pair_rejected(self):
        with pytest.raises(InputError, match="twice"):
            parse_document(
                {
                    "curves": [
                        {"name": "A", "self": 0},
                        {"name": "B", "self": 0},
                    ],
                    "intersections": [[0, 1, 1], [1, 0, 2]],
                }
            )

    def test_negative_intersection_rejected(self):
        with pytest.raises(InputError, match="negatively"):
            parse_document(
                {
                    "curves": [
                        {"name": "A", "self": 0},
                        {"name": "B", "self": 0},
                    ],
                    "intersections": [[0, 1, -1]],
                }
            )

    def test_off_curve_point_rejected(self):
        with pytest.raises(InputError, match="elliptic.points\\[0\\]"):
            parse_document(
                {
                    "elliptic": {
                        "curve": {"a3": 1, "a4": -1},
                        "points": [{"x": 5, "y": 5}],
                    }
                }
            )

    def test_bad_schema_version(self):
        with pytest.raises(InputError, match="schema_version"):
            parse_document({"schema_version": 2})
