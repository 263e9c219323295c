import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import surfsat
from surfsat.cli import main
from surfsat.errors import InputError
from surfsat.schema import (
    document_to_json,
    load_document,
    parse_document,
    rational_to_json,
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

    def test_verbose_flag_logs_parsing(self, capsys, caplog):
        import logging

        with caplog.at_level(logging.DEBUG, logger="surfsat"):
            code, out, _ = run(
                capsys, "saturate", SAMPLES / "serre_like.json", "--verbose"
            )
        assert code == 0
        assert "verdict: saturated" in out
        assert any("parsed" in rec.message for rec in caplog.records)

    def test_verbose_flag_sets_the_level_on_every_call(self, capsys, caplog):
        # the level comes from each call's flag, not from whichever call
        # configured logging first
        sample = SAMPLES / "serre_like.json"
        for verbose in (False, True, False, True):
            caplog.clear()
            run(capsys, "saturate", sample, *(["--verbose"] if verbose else []))
            logged = any("parsed" in rec.message for rec in caplog.records)
            assert logged == verbose


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
