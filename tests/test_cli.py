import json
from pathlib import Path

import pytest
from conftest import run_cli

from demroots.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"
SL2C = str(DATA / "sl2-times-torus.json")
QUAD = str(DATA / "torus-quadrant.json")
SKEW = str(DATA / "torus-skew.json")
SHARED = str(DATA / "shared-ray.json")
BLUR = str(DATA / "blurring-pair.json")
PLANE = str(DATA / "sl2-plane.json")


class TestValidate:
    def test_valid_record(self):
        out = run_cli("validate", SL2C).stdout
        assert "record valid" in out
        assert out.count("pass") == 3

    def test_json_format(self):
        out = run_cli("validate", SL2C, "--format", "json").stdout
        doc = json.loads(out)
        assert doc["ok"] is True
        assert len(doc["checks"]) == 3

    def test_invalid_record(self, tmp_path):
        doc = {
            "cartan": {"ambient_rank": 2, "simple_roots": [],
                       "simple_coroots": []},
            "lattice_M": {"basis_rows": [[1, 0], [0, 1]]},
            "divisors": [
                {"name": "a", "kappa": [1, 0], "kind": "g-stable"},
                {"name": "b", "kappa": [-1, 0], "kind": "g-stable"},
            ],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        proc = run_cli("validate", str(p), expect=1)
        assert "record invalid" in proc.stdout
        assert "FAIL" in proc.stdout

    def test_malformed_file(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{]")
        proc = run_cli("validate", str(p), expect=1)
        assert "error:" in proc.stderr


class TestGuards:
    def test_computation_refused_on_invalid_record(self, tmp_path):
        doc = {
            "cartan": {"ambient_rank": 1, "simple_roots": [],
                       "simple_coroots": []},
            "lattice_M": {"basis_rows": [[1]]},
            "divisors": [
                {"name": "a", "kappa": [1], "kind": "g-stable"},
                {"name": "b", "kappa": [-1], "kind": "g-stable"},
            ],
        }
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        proc = run_cli("monoid", str(p), expect=1)
        assert "invalid record" in proc.stderr

    def test_usage_error(self):
        run_cli("no-such-command", expect=2)
        run_cli("lnd-dim", SL2C, expect=2)  # missing --weight

    def test_bad_weight_width(self):
        proc = run_cli("lnd-dim", SL2C, "--weight", "1", expect=1)
        assert "coordinates" in proc.stderr

    def test_unknown_divisor(self):
        proc = run_cli("move-divisor", SL2C, "--divisor", "ghost", expect=1)
        assert "no divisor named" in proc.stderr


def assert_one_error(proc, text):
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert text in lines[0]


class TestNoTraceback:
    def test_missing_file(self, tmp_path):
        proc = run_cli("validate", str(tmp_path / "absent.json"), expect=1)
        assert_one_error(proc, "No such file")

    def test_directory_for_file(self, tmp_path):
        proc = run_cli("monoid", str(tmp_path), expect=1)
        assert_one_error(proc, "Is a directory")

    def test_zero_denominator(self):
        proc = run_cli("exp", "--cone", "1,0;0,1", "--root=-1,0",
                       "--term", "1/0:1,1", expect=1)
        assert_one_error(proc, "divides by zero")

    def test_malformed_coefficient(self):
        proc = run_cli("exp", "--cone", "1,0;0,1", "--root=-1,0",
                       "--term", "x:2,1", expect=1)
        assert_one_error(proc, "--term coefficient must be an integer or a fraction "
                               "like 3/2, got 'x'")

    @pytest.mark.parametrize("argv, text", [
        (["roots", "--cone", "1,0;1,2,3"], "--cone generator needs 2 coordinates"),
        (["exp", "--cone", "1,0;0,1", "--root=-1,0,0", "--term", "2,1"],
         "--root needs 2 coordinates"),
    ])
    def test_argument_widths_checked_in_process(self, capsys, argv, text):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"error: {text}"] and not captured.out

    def test_deeply_nested_json(self, tmp_path):
        p = tmp_path / "deep.json"
        p.write_text("[" * 100_000)
        proc = run_cli("validate", str(p), expect=1)
        assert_one_error(proc, "nested too deeply")

    def test_duplicate_key(self, tmp_path):
        text = (DATA / "torus-quadrant.json").read_text()
        p = tmp_path / "twice.json"
        p.write_text(text.replace('"divisors": [', '"divisors": [], "divisors": [', 1))
        proc = run_cli("validate", str(p), expect=1)
        assert proc.stdout == ""
        assert_one_error(proc, "duplicate key 'divisors'")

    def test_rank5_record_over_the_cap(self, tmp_path):
        kappas = [[int(i == j) for j in range(5)] for i in range(4)] + \
            [[1, 1, 1, 1, -2], [0, 0, 0, 0, 1], [2, -1, 0, 3, 1], [5, 7, 0, 0, -9]]
        doc = {"cartan": {"ambient_rank": 5, "simple_roots": [], "simple_coroots": []},
               "lattice_M": {"basis_rows": [[int(i == j) for j in range(5)]
                                            for i in range(5)]},
               "divisors": [{"name": f"d{i}", "kappa": k, "kind": "g-stable"}
                            for i, k in enumerate(kappas)]}
        p = tmp_path / "rank5.json"
        p.write_text(json.dumps(doc))
        proc = run_cli("monoid", str(p), expect=1)
        assert_one_error(proc, "too large")


class TestRecordOverTheCap:
    """The rank-5 record above, whose weight monoid's Hilbert basis meets the
    zonotope cap: every command but monoid accepts it."""

    @staticmethod
    def record(tmp_path):
        kappas = [[int(i == j) for j in range(5)] for i in range(4)] + \
            [[1, 1, 1, 1, -2], [0, 0, 0, 0, 1], [2, -1, 0, 3, 1], [5, 7, 0, 0, -9]]
        doc = {"cartan": {"ambient_rank": 5, "simple_roots": [], "simple_coroots": []},
               "lattice_M": {"basis_rows": [[int(i == j) for j in range(5)]
                                            for i in range(5)]},
               "divisors": [{"name": f"d{i}", "kind": "g-stable", "kappa": k}
                            for i, k in enumerate(kappas)]}
        p = tmp_path / "rank5.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_validate(self, tmp_path):
        proc = run_cli("validate", self.record(tmp_path))
        assert proc.stdout.endswith("record valid\n")
        assert "check weight-monoid-spans-M: pass" in proc.stdout
        assert proc.stderr == ""

    def test_report_gstable_finds_every_witness(self, tmp_path):
        out = run_cli("report-gstable", self.record(tmp_path), "--format", "json").stdout
        rows = json.loads(out)["divisors"]
        assert [(r["divisor"], r["status"]) for r in rows] == \
            [(f"d{i}", "witness") for i in range(8)]


class TestMonoid:
    def test_full(self):
        out = run_cli("monoid", SL2C).stdout
        assert "weight monoid Hilbert basis (2 generators):" in out
        assert "  (0, 1)" in out and "  (1, 0)" in out

    def test_chart(self):
        out = run_cli("monoid", SL2C, "--chart").stdout
        assert "(3 generators)" in out
        assert "  (-1, 0)" in out

    def test_excluded_color_chart(self):
        out = run_cli("monoid", BLUR, "--exclude-color", "tcol").stdout
        assert "chart weight monoid" in out


class TestRoots:
    def test_text(self):
        out = run_cli("roots", "--cone", "1,0;1,2", "--bound", "2").stdout
        assert "ray (1, 0):" in out
        assert "  (-1, 1)" in out
        assert "ray (1, 2):" in out
        assert "  (1, -1)" in out

    def test_json(self):
        out = run_cli("roots", "--cone", "1,0;0,1", "--bound", "1",
                      "--format", "json").stdout
        doc = json.loads(out)
        assert doc["bound"] == 1
        assert [r["ray"] for r in doc["rays"]] == [[0, 1], [1, 0]]
        assert [[0, -1], [1, -1]] == doc["rays"][0]["roots"]

    def test_line_rejected(self):
        proc = run_cli("roots", "--cone", "1,0;-1,0", expect=1)
        assert "error:" in proc.stderr

    def test_negative_bound(self):
        proc = run_cli("roots", "--cone", "1,0;1,2", "--bound", "-1", expect=1)
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: bound must be nonnegative, got -1"]


class TestExp:
    def test_binomial(self):
        out = run_cli("exp", "--cone", "1,0;0,1", "--root=-1,0",
                      "--term", "2,0").stdout
        assert out.strip() == "f(2, 0) + 2 t f(1, 0) + t^2 f(0, 0)"

    def test_fraction_coefficient(self):
        out = run_cli("exp", "--cone", "1,0;0,1", "--root=-1,0",
                      "--term", "1/2:1,0").stdout
        assert out.strip() == "1/2 f(1, 0) + 1/2 t f(0, 0)"

    def test_multiple_terms(self):
        out = run_cli("exp", "--cone", "1,0;0,1", "--root=-1,0",
                      "--term", "1,0", "--term=-1:0,1").stdout
        assert out.strip() == "-f(0, 1) + f(1, 0) + t f(0, 0)"

    def test_not_a_root(self):
        proc = run_cli("exp", "--cone", "1,0;0,1", "--root=-2,0",
                       "--term", "1,0", expect=1)
        assert "error:" in proc.stderr

    def test_unsupported_weight(self):
        proc = run_cli("exp", "--cone", "1,0;0,1", "--root=-1,0",
                       "--term", "0,-1", expect=1)
        assert "outside the weight monoid" in proc.stderr

    def test_unsupported_weight_reported_once(self):
        proc = run_cli("exp", "--cone", "1,0;0,1", "--root=-1,0", "--term=-1,0", expect=1)
        assert proc.stderr.splitlines() == [
            "error: weight (-1, 0) lies outside the weight monoid of the cone"]

    def test_json(self):
        out = run_cli("exp", "--cone", "1,0;0,1", "--root=-1,0",
                      "--term", "1,0", "--format", "json").stdout
        doc = json.loads(out)
        assert doc["ray"] == [1, 0]
        assert doc["polynomial"][1]["terms"] == [
            {"weight": [0, 0], "coefficient": "1"}]


class TestReports:
    def test_lnd_dim(self):
        out = run_cli("lnd-dim", SL2C, "--weight", "0,-1").stdout
        assert "dimension 1" in out
        assert "toric term along ray (0, 1)" in out

    def test_classify(self):
        out = run_cli("classify", SL2C, "--weight", "0,-1").stdout
        assert "horizontal (toroidal), moves axis" in out

    def test_classify_blurring(self):
        out = run_cli("classify", BLUR, "--weight=-1,0",
                      "--exclude-color", "tcol").stdout
        assert "horizontal (blurring), moves tcol" in out

    def test_classify_vertical(self):
        out = run_cli("classify", SL2C, "--weight", "2,0").stdout
        assert "vertical" in out

    def test_omega(self):
        out = run_cli("omega", SL2C, "--weight", "0,-1").stdout
        assert "levi simple roots: none" in out
        assert "  (2, 0)" in out
        assert "congruent: (2, 0)" in out
        assert "realizable: none" in out

    def test_move_divisor(self):
        out = run_cli("move-divisor", SL2C, "--divisor", "axis").stdout
        assert "divisor axis: witness" in out
        assert "demazure root mu = (0, -1)" in out
        assert "shift lam = (1, 0)" in out

    def test_move_divisor_json(self):
        out = run_cli("move-divisor", SL2C, "--divisor", "axis",
                      "--format", "json").stdout
        doc = json.loads(out)
        assert doc["status"] == "witness"
        assert doc["witness"]["mu"] == [0, -1]

    def test_report_gstable(self):
        out = run_cli("report-gstable", QUAD).stdout
        assert "divisor axis-x: witness" in out
        assert "divisor axis-y: witness" in out

    def test_report_gstable_failures(self):
        out = run_cli("report-gstable", SHARED).stdout
        assert "divisor inner: fails" in out
        assert "same ray: outer" in out

    def test_report_gstable_empty(self):
        out = run_cli("report-gstable", PLANE).stdout
        assert "no G-stable divisors" in out

    def test_search_bound_flag(self):
        out = run_cli("move-divisor", QUAD, "--divisor", "axis-x",
                      "--search-bound", "1").stdout
        assert "witness" in out

    def test_negative_search_bound(self):
        for cmd in (("move-divisor", QUAD, "--divisor", "axis-x"),
                    ("report-gstable", QUAD)):
            proc = run_cli(*cmd, "--search-bound", "-1", expect=1)
            assert proc.stdout == ""
            assert proc.stderr.splitlines() == [
                "error: search bound must be nonnegative, got -1"]

    def test_inconclusive_shows_searched_range(self):
        out = run_cli("move-divisor", SKEW, "--divisor", "edge-b",
                      "--search-bound", "1").stdout
        assert "divisor edge-b: inconclusive" in out
        assert "  searched: no shift with sup-norm 1..1" in out
        doc = json.loads(run_cli("report-gstable", QUAD, "--search-bound", "0",
                                 "--format", "json").stdout)
        for row in doc["divisors"]:
            assert row["searched"] == {"missing": "demazure root",
                                       "sup_norm": [0, 0]}
