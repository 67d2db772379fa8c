import json
from pathlib import Path

import pytest

from demroots.catalog import CATALOG
from demroots.datumio import (DatumFormatError, parse_datum, read_datum,
                              serialize_datum, write_datum)
from demroots.spherical import DatumError

DATA = Path(__file__).resolve().parent.parent / "data"


def valid_doc():
    return {
        "cartan": {"ambient_rank": 2, "simple_roots": [[2, 0]],
                   "simple_coroots": [[1, 0]]},
        "lattice_M": {"basis_rows": [[1, 0], [0, 1]]},
        "divisors": [
            {"name": "line", "kappa": [1, 0], "kind": "color",
             "color_type": "U", "moved_by": [0]},
            {"name": "axis", "kappa": [0, 1], "kind": "g-stable"},
        ],
    }


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_serialize_parse_identity(self, name):
        datum = CATALOG[name]
        text = serialize_datum(datum)
        assert parse_datum(text) == datum
        assert serialize_datum(parse_datum(text)) == text

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_committed_files_match_catalog(self, name):
        path = DATA / f"{name}.json"
        assert path.exists(), f"missing {path}"
        assert read_datum(path) == CATALOG[name]
        assert path.read_text() == serialize_datum(CATALOG[name])

    def test_write_read(self, tmp_path):
        p = tmp_path / "d.json"
        write_datum(CATALOG["torus-skew"], p)
        assert read_datum(p) == CATALOG["torus-skew"]

    def test_parse_valid_doc(self):
        datum = parse_datum(json.dumps(valid_doc()))
        assert datum == CATALOG["sl2-times-torus"]


def _expect_reject(doc, exc=DatumFormatError):
    with pytest.raises(exc):
        parse_datum(json.dumps(doc))


class TestRejection:
    def test_not_json(self):
        with pytest.raises(DatumFormatError):
            parse_datum("{nope")

    def test_unknown_top_level_field(self):
        doc = valid_doc()
        doc["extra"] = 1
        _expect_reject(doc)

    def test_missing_block(self):
        doc = valid_doc()
        del doc["divisors"]
        _expect_reject(doc)

    def test_unknown_cartan_field(self):
        doc = valid_doc()
        doc["cartan"]["weyl"] = []
        _expect_reject(doc)

    def test_bool_as_int(self):
        doc = valid_doc()
        doc["divisors"][1]["kappa"] = [True, 0]
        _expect_reject(doc)

    def test_float_rejected(self):
        doc = valid_doc()
        doc["divisors"][1]["kappa"] = [0.5, 0]
        _expect_reject(doc)

    def test_kappa_width_checked(self):
        doc = valid_doc()
        doc["divisors"][1]["kappa"] = [0, 1, 2]
        _expect_reject(doc)

    def test_bad_color_type(self):
        doc = valid_doc()
        doc["divisors"][0]["color_type"] = "Q"
        _expect_reject(doc)

    def test_empty_moved_by(self):
        doc = valid_doc()
        doc["divisors"][0]["moved_by"] = []
        _expect_reject(doc)

    def test_g_stable_with_moved_by(self):
        doc = valid_doc()
        doc["divisors"][1]["moved_by"] = [0]
        _expect_reject(doc)

    def test_bad_kind(self):
        doc = valid_doc()
        doc["divisors"][1]["kind"] = "boundary"
        _expect_reject(doc)

    def test_empty_name(self):
        doc = valid_doc()
        doc["divisors"][0]["name"] = ""
        _expect_reject(doc)

    def test_mover_out_of_range(self):
        doc = valid_doc()
        doc["divisors"][0]["moved_by"] = [4]
        _expect_reject(doc, DatumError)

    def test_duplicate_names(self):
        doc = valid_doc()
        doc["divisors"][1]["name"] = "line"
        _expect_reject(doc, DatumError)

    def test_mismatched_root_lists(self):
        doc = valid_doc()
        doc["cartan"]["simple_coroots"] = []
        _expect_reject(doc)

    def test_zero_ambient_rank(self):
        doc = valid_doc()
        doc["cartan"]["ambient_rank"] = 0
        _expect_reject(doc)

    def test_empty_basis(self):
        doc = valid_doc()
        doc["lattice_M"]["basis_rows"] = []
        _expect_reject(doc)

    def test_dependent_basis(self):
        doc = valid_doc()
        doc["lattice_M"]["basis_rows"] = [[1, 0], [2, 0]]
        _expect_reject(doc, ValueError)

    def test_invalid_cartan_data(self):
        doc = valid_doc()
        doc["cartan"]["simple_roots"] = [[3, 0]]  # diagonal entry 3
        _expect_reject(doc, ValueError)

    def test_divisor_not_object(self):
        doc = valid_doc()
        doc["divisors"] = ["axis"]
        _expect_reject(doc)

    def test_duplicate_keys(self):
        text = json.dumps(valid_doc())
        twice = {
            "divisors": text[:-1] + ', "divisors": []}',
            "kappa": text.replace('"kappa": [0, 1]', '"kappa": [0, 1], "kappa": [1, 1]'),
        }
        for key, doc in twice.items():
            with pytest.raises(DatumFormatError, match=f"duplicate key '{key}'"):
                parse_datum(doc)
