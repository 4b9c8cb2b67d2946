import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfchern import chern, cli
from mfchern.chern import InternalConsistencyError
from mfchern.cli import main
from mfchern.exterior import fm_mul

from conftest import mf_1x1, ring

KOSZUL = {"vars": ["x", "y"], "f": "x*y", "A": [["x"]], "B": [["y"]]}

THREEVAR = {
    "vars": ["x", "y", "z"],
    "f": "x*y + y*z + z*x",
    "A": [["z", "y"], ["x", "-x-y"]],
    "B": [["x+y", "y"], ["x", "-z"]],
}

MORPHISM = {**KOSZUL, "alpha0": [["1"]], "alpha1": [["1"]]}

# the same factorization over another ring
KOSZUL_XZ = {**KOSZUL, "vars": ["x", "z"], "f": "x*z", "B": [["z"]]}

COMPLEX = {
    "vars": ["x", "y"],
    "min_degree": 0,
    "ranks": [1, 2],
    "differentials": [[["y"], ["x"]]],
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


class TestDocumentErrors:
    """Malformed documents exit 2 with the JSON path and no traceback."""

    def run(self, tmp_path, capsys, doc, gamma=None):
        argv = ["chern", write(tmp_path, "m.json", doc)]
        if gamma is not None:
            argv += ["--gamma", write(tmp_path, "g.json", gamma)]
        code = main(argv)
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return code, err

    def test_non_string_matrix_entry(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", {**KOSZUL, "A": [[1]]})
        assert main(["validate", path]) == cli.EXIT_USAGE
        assert "'A'[0][0] must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,message", [
        ("f", 1, "'f' must be a string"),
        ("A", 1, "'A' must be a list of rows"),
    ])
    def test_wrong_top_level_type(self, tmp_path, capsys, key, value, message):
        code, err = self.run(tmp_path, capsys, {**KOSZUL, key: value})
        assert code == cli.EXIT_USAGE and message in err

    def test_non_list_matrix_row(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, {**KOSZUL, "B": ["y"]})
        assert code == cli.EXIT_USAGE and "'B'[0] must be a list" in err

    def test_non_string_gamma_entry(self, tmp_path, capsys):
        gamma = {"gamma0": [[1]], "gamma1": [["dx"]]}
        code, err = self.run(tmp_path, capsys, KOSZUL, gamma)
        assert code == cli.EXIT_USAGE and "'gamma0'[0][0] must be a string" in err

    def test_empty_gamma_entry(self, tmp_path, capsys):
        gamma = {"gamma0": [[""]], "gamma1": [["dx"]]}
        code, err = self.run(tmp_path, capsys, KOSZUL, gamma)
        assert code == cli.EXIT_USAGE and "'gamma0'[0][0]: unexpected end of input" in err

    def test_duplicate_vars(self, tmp_path, capsys):
        code, err = self.run(tmp_path, capsys, {**KOSZUL, "vars": ["x", "x"]})
        assert code == cli.EXIT_USAGE and "variable names must be unique" in err

    def test_duplicate_vars_on_the_command_line(self, tmp_path, capsys):
        argv = ["nf", "--potential", "x*y", "--form", "dx", "--vars", "x", "x"]
        assert main(argv) == cli.EXIT_USAGE
        path = write(tmp_path, "m.json", KOSZUL)
        assert main(["embed", path, "--vars", "x", "y", "y"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err.count("variable names must be unique") == 2

    def test_zero_form_in_gamma(self, tmp_path, capsys):
        gamma = {"gamma0": [["1"]], "gamma1": [["dx"]]}
        code, err = self.run(tmp_path, capsys, KOSZUL, gamma)
        assert code == cli.EXIT_USAGE and "connection entries must be 1-forms" in err

    def test_power_too_large_to_expand(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", {**KOSZUL, "f": "(x+y+1)^400"})
        start = time.perf_counter()
        assert main(["validate", path]) == cli.EXIT_USAGE
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert "Traceback" not in err and "power ^400" in err

    def test_integer_literal_past_the_digit_limit(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", {**KOSZUL, "f": "x^" + "1" * 5000})
        assert main(["validate", path]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err and "position 2 has 5000 digits" in err

    def test_product_too_large_to_expand(self, tmp_path, capsys):
        doc = {**KOSZUL, "vars": ["x", "y", "z", "w"],
               "f": "*".join(["(x+y+z+w+1)^7"] * 4)}
        start = time.perf_counter()
        assert main(["validate", write(tmp_path, "m.json", doc)]) == cli.EXIT_USAGE
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert "Traceback" not in err and "330-term and a 330-term factor" in err

    def test_parentheses_nested_past_the_recursion_limit(self, tmp_path, capsys):
        doc = {**KOSZUL, "A": [["(" * 3000 + "x" + ")" * 3000]]}
        code, err = self.run(tmp_path, capsys, doc)
        assert code == cli.EXIT_USAGE
        assert "'A'[0][0]: parentheses nested too deeply" in err

    def test_large_power_of_a_monomial_still_parses(self, tmp_path, capsys):
        doc = {"vars": ["x", "y"], "f": "(x*y)^2 * x^398", "A": [["x^400"]], "B": [["y^2"]]}
        assert main(["validate", write(tmp_path, "m.json", doc)]) == 0
        assert capsys.readouterr().out.strip() == "OK"

    @pytest.mark.parametrize("command,doc,message", [
        ("cone", {**MORPHISM, "source": [1], "target": KOSZUL},
         "'source' must be an object"),
        ("fold", {**COMPLEX, "min_degree": "a"}, "'min_degree' must be an integer"),
        ("fold", {**COMPLEX, "min_degree": 0.5}, "'min_degree' must be an integer"),
        ("fold", {**COMPLEX, "ranks": 7}, "'ranks' must be a list of integers"),
    ])
    def test_malformed_transform_document(self, tmp_path, capsys, command, doc, message):
        path = write(tmp_path, "d.json", doc)
        assert main([command, path, "-o", str(tmp_path / "out.json")]) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("images,message", [
        ([3, "y"], "'images'[0] must be a string"),
        (["x"], "'images' must be a list of 2 strings"),
    ])
    def test_malformed_ring_map(self, tmp_path, capsys, images, message):
        rm = {"source_vars": ["x", "y"], "target_vars": ["x", "y"], "images": images}
        argv = ["pushforward", write(tmp_path, "m.json", KOSZUL),
                write(tmp_path, "rm.json", rm)]
        assert main(argv) == cli.EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        b"\xff\xfe{}",                      # not UTF-8
        b"[" * 100000 + b"]" * 100000,      # nested past the recursion limit
    ], ids=["not-utf8", "deep"])
    def test_unreadable_file(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["validate", str(path)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err and f"cannot read {path} as JSON" in err

    @pytest.mark.parametrize("argv,message", [
        (["tensor", "{koszul}", "{xz}"], "tensor factors must share a ring context"),
        (["pushforward", "{koszul}", "{xz_map}"], "not over the map's source ring"),
        (["embed", "{koszul}", "--vars", "x", "z"], "unknown variable 'y'"),
        (["nf", "--potential", "x*y", "--form", "x+dx"], "form must be homogeneous"),
        (["check", "{koszul}", "{xz}", "--suite", "multiplicativity"],
         "tensor factors must share a ring context"),
    ], ids=["tensor", "pushforward", "embed", "nf", "check"])
    def test_inputs_that_do_not_fit_together(self, tmp_path, capsys, argv, message):
        paths = {
            "koszul": write(tmp_path, "k.json", KOSZUL),
            "xz": write(tmp_path, "xz.json", KOSZUL_XZ),
            "xz_map": write(tmp_path, "rm.json", {"source_vars": ["x", "z"],
                                                  "target_vars": ["x", "y"],
                                                  "images": ["x", "y"]}),
        }
        assert main([a.format(**paths) for a in argv]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err

    @pytest.mark.parametrize("argv,message", [
        (["validate", "{m}"], "^30000000 of a 1-term base could have coefficients"),
        (["nf", "--potential", "x*y", "--form", "(1000*x)^2000*dx", "--vars", "x", "y"],
         "^2000 of a 1-term base could have coefficients"),
    ], ids=["validate", "nf"])
    def test_coefficients_too_large_to_expand(self, tmp_path, capsys, argv, message):
        path = write(tmp_path, "m.json", {**KOSZUL, "f": "(3*x)^30000000*y"})
        start = time.perf_counter()
        assert main([a.format(m=path) for a in argv]) == cli.EXIT_USAGE
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err

    def test_base_change_too_large_to_expand(self, tmp_path, capsys):
        doc = {**KOSZUL, "f": "x^300*y", "A": [["x^300"]]}
        rm = {"source_vars": ["x", "y"], "target_vars": ["x", "y"],
              "images": ["x+y+1", "y"]}
        argv = ["pushforward", write(tmp_path, "m.json", doc), write(tmp_path, "rm.json", rm)]
        start = time.perf_counter()
        assert main(argv) == cli.EXIT_USAGE
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert "Traceback" not in err and "power ^300 of a 3-term image of 'x'" in err

    def test_result_too_long_to_print(self, tmp_path, capsys):
        n = "9" * 4300  # the longest literal; twice it has 4301 digits
        doc = {**KOSZUL, "f": f"{n}*x*y + {n}*x*y", "A": [[f"{n}*x + {n}*x"]]}
        assert main(["shift", write(tmp_path, "m.json", doc)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err and "too many to print" in err

    @pytest.mark.parametrize("ranks", [[1000, 0], [300000, 0], [1, cli.MAX_FOLDED_RANK]])
    def test_declared_ranks_past_the_bound(self, tmp_path, capsys, ranks):
        doc = {"vars": ["x"], "min_degree": 0, "ranks": ranks, "differentials": [[]]}
        start = time.perf_counter()
        assert main(["fold", write(tmp_path, "c.json", doc)]) == cli.EXIT_USAGE
        assert time.perf_counter() - start < 5
        err = capsys.readouterr().err
        assert f"'ranks' add up to {sum(ranks)}, more than the {cli.MAX_FOLDED_RANK}" in err

    def test_declared_ranks_at_the_bound_fold(self, tmp_path, capsys):
        doc = {"vars": ["x"], "min_degree": 0, "ranks": [cli.MAX_FOLDED_RANK, 0],
               "differentials": [[]]}
        assert main(["fold", write(tmp_path, "c.json", doc)]) == 0
        assert len(json.loads(capsys.readouterr().out)["A"]) == cli.MAX_FOLDED_RANK


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

    def test_functoriality_of_a_product_of_high_powers(self, tmp_path):
        # each substituted term has at most C(15, 3) = 455 terms, though its
        # factors' term counts multiply past the product bound
        doc = {"vars": ["x", "y", "z", "w"], "f": "x^3*y^3*z^3*w^3",
               "A": [["x^3*y^3"]], "B": [["z^3*w^3"]]}
        path = write(tmp_path, "m.json", doc)
        assert main(["check", path, "--suite", "functoriality"]) == cli.EXIT_OK

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_power_suites_take_one_product_a_power(self, n, monkeypatch):
        # atiyah takes four products; then odd climbs to the largest odd
        # power <= n, and cycle to the n-th
        vs = ("x", "y", "z", "w")[:n]
        M = mf_1x1(ring(*vs), "x", "*".join(vs))
        calls = []
        monkeypatch.setattr(chern, "fm_mul", lambda S, T: calls.append(1) or fm_mul(S, T))
        for suite, products in (("odd", n - 1 + n % 2), ("cycle", n)):
            calls.clear()
            assert cli._SUITES[suite](M, None) == (True, "ok")
            assert len(calls) == 4 + products

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

    def test_parentheses_nested_past_the_recursion_limit(self, capsys):
        form = "(" * 5000 + "x" + ")" * 5000 + "*dx"
        assert main(["nf", "--potential", "x*y", "--form", form]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err and "parentheses nested too deeply" in err

    @pytest.mark.parametrize("form", ["x+", "", "x dx", "dx @ dy"])
    @pytest.mark.parametrize("given_vars", [[], ["--vars", "x", "y"]], ids=["inferred", "given"])
    def test_malformed_form_is_usage(self, capsys, form, given_vars):
        assert main(["nf", "--potential", "x*y", "--form", form] + given_vars) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("given_vars", [[], ["--vars", "x", "dx"]],
                             ids=["inferred", "given"])
    def test_variable_named_like_a_differential_is_usage(self, capsys, given_vars):
        # dx*d(x) would print as 'dx*dx' and read back as 0
        assert main(["nf", "--potential", "x*dx", "--form", "dx"] + given_vars) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "variable 'dx' reads as the differential of 'x'" in err

    def test_inferred_variables(self, capsys):
        # 'dx' is a differential once x is known; 'dz' names a variable
        assert cli._infer_ctx(None, "x*y", "dx + x*dy").variables == ("x", "y")
        assert cli._infer_ctx(None, "2*x^2", "y*dy + dz").variables == ("x", "y", "dz")


def test_import_loads_neither_dataclasses_nor_inspect():
    """Start-up cost: the value types need neither module, and a fresh
    interpreter importing the CLI loads neither."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, mfchern.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# ---------------------------------------------------------------------------
# fuzzed documents
# ---------------------------------------------------------------------------

RING_MAP = {"source_vars": ["x", "y"], "target_vars": ["x", "y"], "images": ["x + y", "y"]}
GAMMA = {"gamma0": [["x*dy"]], "gamma1": [["3*dx + y*dy"]]}

# (argv with {name} for each document, the documents; the first is mutated)
FUZZ_CASES = [
    (["validate", "{m}"], {"m": THREEVAR}),
    (["chern", "{k}", "--gamma", "{g}"], {"g": GAMMA, "k": KOSZUL}),
    (["cone", "{m}"], {"m": {**KOSZUL, "source": KOSZUL, "target": KOSZUL,
                             "alpha0": [["1"]], "alpha1": [["1"]]}}),
    (["fold", "{c}"], {"c": COMPLEX}),
    (["pushforward", "{k}", "{r}"], {"r": RING_MAP, "k": KOSZUL}),
    (["shift", "{m}"], {"m": THREEVAR}),
    (["tensor", "{a}", "{b}"], {"a": KOSZUL, "b": KOSZUL}),
    (["embed", "{k}", "--vars", "x", "y", "z"], {"k": KOSZUL}),
    (["check", "{k}", "--suite", "odd"], {"k": KOSZUL}),
]

RETYPED = [
    None, True, 0.5, -1, 3, "", "x", "dx", "x+dx", {}, [], [[]], ["x"], [["x", "y"]],
    {"vars": ["x"]},
]
LARGE = [
    "9" * 4300, "9" * 4301, "x^" + "9" * 4300, "(3*x)^30000000", "(2*x)^14285",
    "(1000*x)^2000*dx", "(x+y+1)^" + "9" * 3000, "(x+y+1)^400", 64, 10 ** 6, 10 ** 30,
]
OPS = ["retype", "enlarge", "delete", "duplicate", "append", "drop", "wrap", "argv"]
ARGV_OPS = ["drop", "repeat", "nosuch", "missing", "seed"]


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _paths(v, prefix + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, prefix + (i,))


def _mutate(doc, path, op, payload):
    """The JSON text of ``doc`` after one mutation at ``path``."""
    if op == "duplicate" and path:  # the key twice in the top-level object
        pairs = list(doc.items()) + [(path[0], payload)]
        return "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pairs) + "}"
    if not path:
        return json.dumps({"retype": payload, "wrap": [doc]}.get(op, doc))
    *head, last = path
    parent = doc
    for k in head:
        parent = parent[k]
    value = parent[last]
    if op == "enlarge" and type(value) is str and type(payload) is str:
        parent[last] = f"{value}*{payload}"
    elif op in ("retype", "enlarge"):
        parent[last] = payload
    elif op == "delete":
        del parent[last]
    elif op == "wrap":
        parent[last] = [value]
    elif isinstance(value, list) and op == "append":
        value.append(value[-1] if value else payload)
    elif isinstance(value, list) and op == "drop" and value:
        value.pop()
    return json.dumps(doc)


def _mutate_argv(argv, op, i):
    """``argv`` after one mutation at its i-th argument."""
    if op == "drop":
        return argv[:i] + argv[i + 1:]
    if op == "repeat":  # a flag with its value, or else one argument
        return argv + argv[i:i + 2 if argv[i].startswith("--") else i + 1]
    if op == "nosuch":
        return argv[:i] + ["--nosuch"] + argv[i:]
    if op == "missing":  # every document path names no file
        return [a + ".missing" if a.startswith("{") else a for a in argv]
    return argv + ["--seed", "x"]


@st.composite
def fuzz_cases(draw):
    """A valid case with one or two mutations of its first document or of
    its argument list."""
    argv, docs = draw(st.sampled_from(FUZZ_CASES))
    texts = {name: json.dumps(doc) for name, doc in docs.items()}
    first = next(iter(docs))
    for _ in range(draw(st.integers(1, 2))):
        doc = json.loads(texts[first])
        path = draw(st.sampled_from(list(_paths(doc))))
        op = draw(st.sampled_from(OPS))
        if op == "argv":  # argv keeps at least one of its two or more arguments
            i = draw(st.integers(0, len(argv) - 1))
            argv = _mutate_argv(argv, draw(st.sampled_from(ARGV_OPS)), i)
            continue
        payload = draw(st.sampled_from(LARGE if op == "enlarge" else RETYPED))
        texts[first] = _mutate(doc, path, op, payload)
    return argv, {name: text.encode() for name, text in texts.items()}


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _doc(doc):
    return json.dumps(doc).encode()


@settings(derandomize=True, deadline=None, max_examples=300)
@given(fuzz_cases())
@example((["validate", "{m}"], {"m": b"\xff\xfe{}"}))
@example((["validate", "{m}"], {"m": b"[" * 100000 + b"]" * 100000}))
@example((["tensor", "{a}", "{b}"], {"a": _doc(KOSZUL), "b": _doc(KOSZUL_XZ)}))
@example((["pushforward", "{k}", "{r}"], {"k": _doc(KOSZUL), "r": _doc(
    {**RING_MAP, "source_vars": ["x", "z"]})}))
@example((["embed", "{k}", "--vars", "x", "z"], {"k": _doc(KOSZUL)}))
@example((["nf", "--potential", "x*y", "--form", "x+dx"], {}))
@example((["check", "{a}", "{b}", "--suite", "multiplicativity"],
          {"a": _doc(KOSZUL), "b": _doc(KOSZUL_XZ)}))
@example((["validate", "{m}"], {"m": _doc({**KOSZUL, "f": "(3*x)^30000000*y"})}))
@example((["nf", "--potential", "x*y", "--form", "(1000*x)^2000*dx", "--vars", "x", "y"], {}))
@example((["fold", "{c}"], {"c": _doc(
    {"vars": ["x"], "min_degree": 0, "ranks": [1000, 0], "differentials": [[]]})}))
@example((["fold", "{c}"], {"c": _doc(
    {"vars": ["x"], "min_degree": 0, "ranks": [300000, 0], "differentials": [[]]})}))
def test_fuzzed_documents(case):
    """Whatever the document, an exit code in {0, 1, 2}, no traceback, and the
    same output from a second run."""
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, content in files.items():
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "wb") as fh:
                fh.write(content)
        argv = [a.format(**paths) for a in argv]
        first = _run_in_process(argv)
        assert first[0] in (0, 1, 2), first
        assert "Traceback" not in first[2]
        assert _run_in_process(argv) == first
