import json

import pytest

from mfchern import cli
from mfchern.chern import InternalConsistencyError
from mfchern.cli import main

KOSZUL = {"vars": ["x", "y"], "f": "x*y", "A": [["x"]], "B": [["y"]]}

THREEVAR = {
    "vars": ["x", "y", "z"],
    "f": "x*y + y*z + z*x",
    "A": [["z", "y"], ["x", "-x-y"]],
    "B": [["x+y", "y"], ["x", "-z"]],
}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


class TestValidate:
    def test_ok(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", THREEVAR)
        assert main(["validate", path]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    def test_zero_object(self, tmp_path, capsys):
        doc = {"vars": ["x"], "f": "0", "A": [], "B": []}
        path = write(tmp_path, "z.json", doc)
        assert main(["validate", path]) == 0

    def test_corrupted_entry(self, tmp_path, capsys):
        doc = dict(THREEVAR)
        doc["B"] = [["x+y", "y"], ["x", "-z+1"]]
        path = write(tmp_path, "bad.json", doc)
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "(" in out

    def test_bad_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{nope", encoding="utf-8")
        assert main(["validate", str(p)]) == 2

    def test_usage_error(self):
        assert main(["validate"]) == 2

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2


class TestChern:
    def test_koszul(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", KOSZUL)
        assert main(["chern", path]) == 0
        out = capsys.readouterr().out
        assert "deg 0: 0" in out
        assert "deg 2: dx^dy" in out

    def test_internal_inconsistency_exits_3(self, tmp_path, capsys, monkeypatch):
        def broken(M, conn=None):
            raise InternalConsistencyError("df ^ str(At^2) != 0")

        monkeypatch.setattr(cli, "chern_character", broken)
        path = write(tmp_path, "m.json", KOSZUL)
        assert main(["chern", path]) == cli.EXIT_INTERNAL == 3
        err = capsys.readouterr().err
        assert err == "internal error: df ^ str(At^2) != 0\n"
        assert "Traceback" not in err

    def test_contractible(self, tmp_path, capsys):
        doc = {"vars": ["x", "y"], "f": "x*y", "A": [["1"]], "B": [["x*y"]]}
        path = write(tmp_path, "t.json", doc)
        assert main(["chern", path]) == 0
        out = capsys.readouterr().out
        assert "deg 0: 0" in out and "deg 2: 0" in out

    def test_gamma_does_not_change_output(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", KOSZUL)
        gamma = {"gamma0": [["x*dy"]], "gamma1": [["3*dx + y*dy"]]}
        gpath = write(tmp_path, "g.json", gamma)
        assert main(["chern", path]) == 0
        plain = capsys.readouterr().out
        assert main(["chern", path, "--gamma", gpath]) == 0
        assert capsys.readouterr().out == plain


class TestTransforms:
    def test_shift_twice_byte_identical(self, tmp_path):
        # input written in the tool's own canonical format
        doc = {
            "vars": ["x", "y", "z"],
            "f": "x*y + x*z + y*z",
            "A": [["z", "y"], ["x", "-x - y"]],
            "B": [["x + y", "y"], ["x", "-z"]],
        }
        p = tmp_path / "m.json"
        canonical = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        p.write_text(canonical, encoding="utf-8")
        out1 = str(tmp_path / "s1.json")
        out2 = str(tmp_path / "s2.json")
        assert main(["shift", str(p), "-o", out1]) == 0
        assert main(["shift", out1, "-o", out2]) == 0
        assert (tmp_path / "s2.json").read_text() == canonical

    def test_tensor_writes_valid_document(self, tmp_path, capsys):
        a = write(
            tmp_path, "a.json",
            {"vars": ["x", "y", "u", "v"], "f": "x*y",
             "A": [["x"]], "B": [["y"]]},
        )
        b = write(
            tmp_path, "b.json",
            {"vars": ["x", "y", "u", "v"], "f": "u*v",
             "A": [["u"]], "B": [["v"]]},
        )
        out = str(tmp_path / "t.json")
        assert main(["tensor", a, b, "-o", out]) == 0
        assert main(["validate", out]) == 0
        doc = json.loads((tmp_path / "t.json").read_text())
        assert len(doc["A"]) == 2 and len(doc["B"]) == 2

    def test_cone_of_identity(self, tmp_path):
        doc = dict(KOSZUL)
        doc["alpha0"] = [["1"]]
        doc["alpha1"] = [["1"]]
        path = write(tmp_path, "mor.json", doc)
        out = str(tmp_path / "c.json")
        assert main(["cone", path, "-o", out]) == 0
        assert main(["validate", out]) == 0

    def test_fold(self, tmp_path):
        doc = {
            "vars": ["x", "y"],
            "min_degree": 0,
            "ranks": [1, 2],
            "differentials": [[["y"], ["x"]]],
        }
        path = write(tmp_path, "cx.json", doc)
        out = str(tmp_path / "f.json")
        assert main(["fold", path, "-o", out]) == 0
        folded = json.loads((tmp_path / "f.json").read_text())
        assert folded["f"] == "0"
        assert len(folded["A"]) == 1 and len(folded["B"]) == 2

    def test_pushforward_shear(self, tmp_path):
        a = write(tmp_path, "a.json", KOSZUL)
        rm = write(
            tmp_path, "rm.json",
            {"source_vars": ["x", "y"], "target_vars": ["x", "y"],
             "images": ["x + y", "y"]},
        )
        out = str(tmp_path / "p.json")
        assert main(["pushforward", a, rm, "-o", out]) == 0
        doc = json.loads((tmp_path / "p.json").read_text())
        assert doc["A"] == [["x + y"]]
        assert doc["B"] == [["y"]]

    def test_embed(self, tmp_path):
        a = write(tmp_path, "a.json", KOSZUL)
        out = str(tmp_path / "e.json")
        assert main(["embed", a, "--vars", "x", "y", "u", "v", "-o", out]) == 0
        doc = json.loads((tmp_path / "e.json").read_text())
        assert doc["vars"] == ["x", "y", "u", "v"]
        assert main(["validate", out]) == 0


class TestCheck:
    def test_all_suites_pass(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", THREEVAR)
        assert main(["check", path, "--suite", "all", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "seed=7" in out
        assert "strictness: pass" in out
        assert "FAIL" not in out

    def test_single_suite(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", KOSZUL)
        assert main(["check", path, "--suite", "cycle"]) == 0

    def test_directory_input(self, tmp_path):
        write(tmp_path, "m1.json", KOSZUL)
        write(tmp_path, "m2.json", THREEVAR)
        assert main(["check", str(tmp_path), "--suite", "odd"]) == 0

    def test_paired_multiplicativity(self, tmp_path):
        a = write(
            tmp_path, "a.json",
            {"vars": ["x", "y", "u", "v"], "f": "x*y",
             "A": [["x"]], "B": [["y"]]},
        )
        b = write(
            tmp_path, "b.json",
            {"vars": ["x", "y", "u", "v"], "f": "u*v",
             "A": [["u"]], "B": [["v"]]},
        )
        assert main(["check", a, b, "--suite", "multiplicativity"]) == 0

    def test_deterministic_reports(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", KOSZUL)
        main(["check", path, "--suite", "all", "--seed", "3"])
        first = capsys.readouterr().out
        main(["check", path, "--suite", "all", "--seed", "3"])
        assert capsys.readouterr().out == first


class TestNormalForm:
    def test_reduces_member(self, capsys):
        assert main(["nf", "--potential", "x*y", "--form", "x*dx^dy"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_survivor(self, capsys):
        assert main(["nf", "--potential", "x*y", "--form", "dx^dy"]) == 0
        assert capsys.readouterr().out.strip() == "dx^dy"

    def test_zero_form(self, capsys):
        assert main(["nf", "--potential", "x*y", "--form", "0",
                     "--vars", "x", "y"]) == 0
        assert capsys.readouterr().out.strip() == "0"

    def test_parse_error_is_usage(self, capsys):
        assert main(["nf", "--potential", "x*(", "--form", "dx",
                     "--vars", "x"]) == 2
