import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

import artin_sigma
import artin_sigma.graphs as graphs
from artin_sigma import cli, parse_poly
from artin_sigma.cli import main

F1_TEXT = """v v
v s
v u
v w
e v s 2
e u w 2
e u v 4
e v w 4
e w s 4
e s u 6
c v 1
c s 1
c u -1
c w -1
"""

F3_TEXT = "v a\nv b\ne a b 4\nc a 1\nc b -1\n"

F5_TEXT = "v a\nv b\nv c\ne a b 4\ne b c 4\nc a 1\nc b -1\nc c 1\n"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


def run_python(args, **kwargs):
    """Run the interpreter with the package these tests import on its path."""
    src = os.path.dirname(os.path.dirname(artin_sigma.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        **kwargs,
    )


def run_module(argv, **kwargs):
    """Run ``python -m artin_sigma.cli`` on the package these tests import."""
    return run_python(["-m", "artin_sigma.cli", *argv], **kwargs)


def graph_file(tmp_path, text, name="g.artin"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_envelope_shape(tmp_path, capsys):
    path = graph_file(tmp_path, F3_TEXT)
    blob = run_json(capsys, ["sigma1", path])
    assert list(blob) == ["command", "inputs", "result", "timing_ms"]
    assert blob["command"] == "sigma1"
    assert list(blob["inputs"]) == ["graph_sha256", "character", "mode"]
    assert len(blob["inputs"]["graph_sha256"]) == 64
    assert blob["inputs"]["mode"] == "simple-cycle"
    assert isinstance(blob["timing_ms"], (int, float))


def test_sigma1_f1(tmp_path, capsys):
    path = graph_file(tmp_path, F1_TEXT)
    blob = run_json(capsys, ["sigma1", path])
    res = blob["result"]
    assert res["status"] == "out_conjectural"
    assert res["provenance"] == "conjecture_only"
    assert res["diagnostics"]["cycle_rank"] == 3
    assert res["diagnostics"]["even"] is True
    assert res["diagnostics"]["hypothesis_holds"] is False


def test_sigma1_char_override(tmp_path, capsys):
    path = graph_file(tmp_path, F1_TEXT)
    blob = run_json(capsys, ["sigma1", path, "--char", "v=1,s=1,u=1,w=1"])
    assert blob["result"]["status"] == "in"
    assert blob["result"]["provenance"] == "mmw_sufficient"


def test_sigma1_text_format(tmp_path, capsys):
    path = graph_file(tmp_path, F1_TEXT)
    code, out, err = run_cli(capsys, ["sigma1", path, "--format", "text"])
    assert code == 0
    assert "NOT in Sigma^1 (conjectural)" in out
    assert "conjectured" in out
    assert "{" not in out  # no JSON in text mode


def test_sigma1_requires_character(tmp_path, capsys):
    path = graph_file(tmp_path, "v a\nv b\ne a b 4\n")
    code, out, err = run_cli(capsys, ["sigma1", path])
    assert code == 2
    assert json.loads(err)["error"] == "input"


def test_sigma1_rejects_unknown_vertex(tmp_path, capsys):
    path = graph_file(tmp_path, F3_TEXT)
    code, out, err = run_cli(capsys, ["sigma1", path, "--char", "zz=1"])
    assert code == 2
    blob = json.loads(err)
    assert blob["error"] == "input"
    assert "zz" in blob["message"]


def test_sigma1_refuses_a_character_value_past_the_digit_limit(tmp_path, capsys):
    # Fraction would raise Python's int-string ValueError
    path = graph_file(tmp_path, "v a\nv b\ne a b 4\n")
    code, out, err = run_cli(capsys, ["sigma1", path, "--char", "a=" + "7" * 5000 + ",b=1"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "input",
        "message": "a number has more than MAX_COEFFICIENT_DIGITS = 4300 digits",
    }


def test_polyhedron_f5(tmp_path, capsys):
    path = graph_file(tmp_path, F5_TEXT)
    blob = run_json(capsys, ["polyhedron", path])
    pieces = blob["result"]["pieces"]
    assert len(pieces) == 3
    assert [p["forms"] for p in pieces] == [
        [{"a": "1", "b": "1"}],
        [{"b": "1"}],
        [{"b": "1", "c": "1"}],
    ]
    singleton = pieces[1]["origin"]
    assert singleton["kind"] == "disconnection"
    assert singleton["zero_set"] == ["b"]
    assert singleton["cut_edges"] == []


def test_polyhedron_text_format(tmp_path, capsys):
    path = graph_file(tmp_path, F5_TEXT)
    code, out, err = run_cli(capsys, ["polyhedron", path, "--format", "text"])
    assert code == 0
    assert out.splitlines()[0] == "pieces: 3"
    assert "a + b" in out


def test_polyhedron_json_builds_no_text_line(tmp_path, capsys, monkeypatch):
    import artin_sigma.cli as cli

    made = []
    original = cli._piece_lines

    def counted(poly):
        for line in original(poly):
            made.append(line)
            yield line

    monkeypatch.setattr(cli, "_piece_lines", counted)
    path = graph_file(tmp_path, F5_TEXT)
    run_json(capsys, ["polyhedron", path])
    assert made == []
    code, out, _ = run_cli(capsys, ["polyhedron", path, "--format", "text"])
    assert code == 0 and out.splitlines() == made and len(made) == 4


def test_polyhedron_inputs_and_removed_flag(tmp_path, capsys):
    path = graph_file(tmp_path, F5_TEXT)
    assert list(run_json(capsys, ["polyhedron", path])["inputs"]) == ["graph_sha256"]
    code, out, err = run_cli(capsys, ["polyhedron", path, "--threads", "2"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input", "message": "polyhedron has no option --threads"}


def test_hypothesis_command(tmp_path, capsys):
    path = graph_file(tmp_path, F1_TEXT)
    blob = run_json(capsys, ["hypothesis", path])
    assert blob["result"]["holds"] is False
    assert len(blob["result"]["witness_cycle"]) == 4
    assert blob["inputs"]["mode"] == "simple-cycle"
    strict = run_json(capsys, ["hypothesis", path, "--mode", "strict"])
    assert strict["result"]["holds"] is False
    square = graph_file(
        tmp_path, "v a\nv b\nv c\nv d\ne a b 4\ne b c 4\ne c d 4\ne d a 4\n", "sq.artin"
    )
    blob2 = run_json(capsys, ["hypothesis", square])
    assert blob2["result"]["holds"] is False
    assert blob2["result"]["witness_cycle"] == ["a", "b", "c", "d"]
    tree = graph_file(tmp_path, F3_TEXT, "tree.artin")
    blob3 = run_json(capsys, ["hypothesis", tree])
    assert blob3["result"] == {"holds": True, "witness_cycle": None}


def test_fox_command(capsys):
    # --gen works as an unambiguous prefix of --generator
    blob = run_json(capsys, ["fox", "--word", "a^-1 b^-1 a b", "--gen", "a"])
    deriv = blob["result"]["derivative"]
    assert deriv == {"a^-1": -1, "a^-1 b^-1": 1}


def test_fox_unused_generator_gives_zero(capsys):
    blob = run_json(capsys, ["fox", "--word", "a b", "--gen", "z"])
    assert blob["result"]["derivative"] == {}


def test_fox_rejects_malformed_word(capsys):
    code, out, err = run_cli(capsys, ["fox", "--word", "a^", "--gen", "a"])
    assert code == 2


def test_fox_refuses_an_oversized_word(capsys):
    code, out, err = run_cli(capsys, ["fox", "--word", "a^1000000000", "--gen", "a"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "input",
        "message": "word expands to more than MAX_WORD_LETTERS = 1000000 letters",
    }


def test_fox_refuses_an_oversized_derivative(capsys):
    code, out, err = run_cli(capsys, ["fox", "--word", "a^4000", "--gen", "a"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "input",
        "message": "Fox derivative has more than MAX_DERIVATIVE_LETTERS = 1000000 letters",
    }


def test_jacobian_refuses_a_relator_past_the_word_limit(tmp_path, capsys):
    start = time.process_time()
    code, out, err = run_cli(capsys, ["jacobian", graph_file(tmp_path, "v a\nv b\ne a b 2000000000\n")])
    assert time.process_time() - start < 0.5
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "input",
        "message": "relator of label 2000000000 has more than MAX_WORD_LETTERS = 1000000 letters",
    }


def test_polyhedron_refuses_too_many_vertices(tmp_path, capsys):
    text = "".join(f"v x{i}\n" for i in range(13)) + "".join(f"e x{i} x{i + 1} 4\n" for i in range(12))
    code, out, err = run_cli(capsys, ["polyhedron", graph_file(tmp_path, text)])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "input",
        "message": "graph has 13 vertices, above MAX_POLYHEDRON_VERTICES = 12",
    }


def test_jacobian_f3(tmp_path, capsys):
    path = graph_file(tmp_path, F3_TEXT)
    blob = run_json(capsys, ["jacobian", path])
    res = blob["result"]
    assert res["generators"] == ["a", "b"]
    assert res["variables"] == ["a", "b"]
    assert len(res["relators"]) == 1
    V = ("a", "b")
    common = parse_poly("a^-2*b^-2 + a^-1*b^-1", V)
    a = parse_poly("a", V)
    b = parse_poly("b", V)
    one = parse_poly("1", V)
    row = res["matrix"][0]
    assert parse_poly(row[0], V) == common * (b - one)
    assert parse_poly(row[1], V) == -common * (a - one)


def test_jacobian_standard_form(tmp_path, capsys):
    path = graph_file(tmp_path, F3_TEXT)
    std = run_json(capsys, ["jacobian", path, "--standard"])
    comm = run_json(capsys, ["jacobian", path])
    assert std["result"]["matrix"] != comm["result"]["matrix"]
    assert std["result"]["relators"] != comm["result"]["relators"]


def test_kt_certify_f5(tmp_path, capsys):
    path = graph_file(tmp_path, F5_TEXT)
    blob = run_json(capsys, ["kt-certify", path, "--bipartition", "a,c/b"])
    res = blob["result"]
    assert res["M"] == 2
    assert res["roots"] == {"(a,b)": "zeta^1", "(c,b)": "zeta^1"}
    assert res["generators"] == 2
    assert res["rank"] == 1
    assert res["conclusion"] == "not_finitely_generated"


def test_kt_certify_f3_auto(tmp_path, capsys):
    path = graph_file(tmp_path, F3_TEXT)
    blob = run_json(capsys, ["kt-certify", path])
    assert blob["result"]["conclusion"] == "not_finitely_generated"
    assert blob["result"]["rank"] == 0


def test_kt_certify_scales_rational_characters(tmp_path, capsys):
    text = "v a\nv b\ne a b 4\nc a 1/2\nc b -1/2\n"
    path = graph_file(tmp_path, text)
    blob = run_json(capsys, ["kt-certify", path])
    assert blob["result"]["M"] == 2
    assert blob["result"]["basepoint_exponents"] == {"a": 1}


def test_kt_certify_needs_bipartition(tmp_path, capsys):
    text = "v a\nv b\nv c\nv d\ne a b 4\ne b c 4\ne c d 4\nc a 1\nc b -1\nc c 1\nc d -1\n"
    path = graph_file(tmp_path, text)
    code, out, err = run_cli(capsys, ["kt-certify", path])
    assert code == 1
    blob = json.loads(err)
    assert blob["error"] == "math"
    assert "components" in blob["message"]


@pytest.mark.parametrize(
    "text, argv, message",
    [
        ("v a\nv b\ne a b 2000000000\nc a 1\nc b -1\n", [],
         "edge (a, b) label 2000000000 needs cyclotomic order 1000000000, "
         "above MAX_CYCLOTOMIC_ORDER = 1000"),
        # half-labels 31 and 37 pass one by one; their lcm does not
        ("v a\nv b\nv c\ne a b 62\ne b c 74\nc a 1\nc b -1\nc c 1\n", ["--bipartition", "a,c/b"],
         "cyclotomic order 1147 is above MAX_CYCLOTOMIC_ORDER = 1000"),
    ],
    ids=["label", "lcm"],
)
def test_kt_certify_refuses_an_oversized_cyclotomic_order(tmp_path, capsys, text, argv, message):
    path = graph_file(tmp_path, text)
    code, out, err = run_cli(capsys, ["kt-certify", path, *argv])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input", "message": message}


def test_groebner_unit_fixture(capsys):
    gens = ["1+u*v", "1+s*u+s^2*u^2", "1+v*w", "1+s*w"]
    blob = run_json(
        capsys,
        ["groebner", "--vars", "s,u,v,w", "--laurent", "--gens", *gens],
    )
    res = blob["result"]
    assert res["unit_ideal"] is True
    assert res["basis"] == ["1"]
    assert res["mod_p"] == {"2": True, "3": True, "5": True, "7": True, "11": True}


def test_groebner_reports_a_denominator_a_prime_divides_as_null(capsys):
    # 1/2 has no residue mod 2: that rerun reads null, and the call succeeds
    result = run_json(capsys, ["groebner", "--vars", "x", "--gens", "1/2*x+1", "--laurent"])["result"]
    assert result["mod_p"] == {"2": None, "3": False, "5": False, "7": False, "11": False}
    assert (result["unit_ideal"], result["unit_method"]) == (False, "lattice")


def test_groebner_refuses_an_oversized_power(capsys):
    start = time.process_time()
    code, out, err = run_cli(capsys, ["groebner", "--vars", "u", "--gens", "(1+u)^20000"])
    assert time.process_time() - start < 0.5
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "input",
        "message": "a power may expand to more than MAX_POWER_TERMS = 1000 terms",
    }


def test_groebner_refuses_a_basis_past_its_cap(capsys, monkeypatch):
    # the cap lowered, not an oversized system run: the saturated four-cycle's
    # pair loop holds 28 elements
    import artin_sigma.groebner as groebner

    monkeypatch.setattr(groebner, "MAX_BASIS_ELEMENTS", 20)
    gens = [f"1+x{i}*x{(i + 1) % 4}+(x{i}*x{(i + 1) % 4})^2" for i in range(4)]
    argv = ["groebner", "--laurent", "--vars", "x0,x1,x2,x3", "--gens", *gens]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "input",
        "message": "the Groebner basis would grow past MAX_BASIS_ELEMENTS = 20 elements",
    }


def test_groebner_refuses_a_coefficient_past_the_digit_limit(capsys, monkeypatch):
    # the limit lowered, not a runaway system run: the pair loop of these two
    # generators makes a new element with a 3-digit coefficient over QQ
    import artin_sigma.groebner as groebner

    argv = ["groebner", "--vars", "x,y", "--gens", "x^2*y - 3*x + 2", "x*y^2 + 5*y - 7"]
    monkeypatch.setattr(groebner, "MAX_COEFFICIENT_DIGITS", 3)
    monkeypatch.setattr(groebner, "_COEFFICIENT_CEILING", 10**3)
    assert run_cli(capsys, argv)[0] == 0
    monkeypatch.setattr(groebner, "MAX_COEFFICIENT_DIGITS", 2)
    monkeypatch.setattr(groebner, "_COEFFICIENT_CEILING", 10**2)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "input",
        "message": "a Groebner basis element would have a coefficient of more than "
                   "MAX_COEFFICIENT_DIGITS = 2 digits",
    }
    # neither the generators nor GF(p) residues, which lie below p, are checked
    assert run_cli(capsys, ["groebner", "--vars", "x", "--gens", "12345*x - 1"])[0] == 0
    gens = [parse_poly(g, ("x", "y")) for g in argv[4:]]
    assert groebner.unit_ideal_mod_p(gens, 10007, laurent=False) is False


@pytest.mark.parametrize(
    "gen, message",
    [
        ("2^20000*u+1", "a power's coefficients may have more than MAX_COEFFICIENT_DIGITS = 4300 digits"),
        ("2^1000000000", "a power's coefficients may have more than MAX_COEFFICIENT_DIGITS = 4300 digits"),
        ("(1+u)^" + "9" * 5000, "a number has more than MAX_COEFFICIENT_DIGITS = 4300 digits"),
        # each factor is under the limit, their product (printed back) is not
        ("7" * 3000 + "*" + "7" * 3000 + "*u+1", "a coefficient has more than MAX_COEFFICIENT_DIGITS = 4300 digits"),
    ],
    ids=["power", "huge-power", "long-exponent", "long-product"],
)
def test_groebner_refuses_numbers_past_the_digit_limit(capsys, gen, message):
    # each would end in Python's int-string ValueError (or build 2^(10^9))
    start = time.process_time()
    code, out, err = run_cli(capsys, ["groebner", "--vars", "u", "--gens", gen])
    assert time.process_time() - start < 0.5
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input", "message": message}


@pytest.mark.parametrize("extra", [[], ["--laurent"]], ids=["plain", "laurent"])
def test_groebner_refuses_a_repeated_variable(capsys, extra):
    code, out, err = run_cli(capsys, ["groebner", "--vars", "x,y,x", "--gens", "x-1", *extra])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input", "message": "variable 'x' is declared twice"}


def test_groebner_refuses_a_variable_name_that_is_not_an_identifier(capsys):
    code, out, err = run_cli(capsys, ["groebner", "--vars", "x*y", "--gens", "x*y - 1"])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input", "message": "variable name 'x*y' is not an identifier "
                               "(ASCII letters, digits and _, not starting with a digit)"}


def test_groebner_non_unit(capsys):
    blob = run_json(
        capsys, ["groebner", "--vars", "x,y", "--gens", "x^2-y", "y^2-1"]
    )
    res = blob["result"]
    assert res["unit_ideal"] is False
    assert any("y" in g for g in res["basis"])


def test_groebner_mod_p_degeneration(capsys):
    blob = run_json(capsys, ["groebner", "--vars", "x", "--gens", "2"])
    res = blob["result"]
    assert res["unit_ideal"] is True
    assert res["mod_p"]["2"] is False
    assert res["mod_p"]["3"] is True


def test_groebner_laurent_unit_method_and_witness(capsys):
    # a relation witness: c = (-2, 1, 1) kills the exponent rows (1, 1),
    # (2, 0), (0, 2), and 2^-2 * 3 * (1/3) = 1/4 != 1
    blob = run_json(
        capsys,
        ["groebner", "--vars", "x,y", "--laurent", "--gens", "x*y-2", "x^2-3", "y^2-1/3"],
    )
    res = blob["result"]
    assert res["unit_ideal"] is True and res["basis"] == ["1"]
    assert res["unit_method"] == "lattice"
    assert res["unit_witness"] == {"relation": [-2, 1, 1]}
    assert res["mod_p"]["3"] is None
    # positions count the zero generator; 3*x is a unit of the Laurent ring
    res = run_json(
        capsys, ["groebner", "--vars", "x,y", "--laurent", "--gens", "0", "x*y-1", "3*x"]
    )["result"]
    assert (res["unit_method"], res["unit_witness"]) == ("lattice", {"monomial": 2})
    assert res["mod_p"]["3"] is False
    res = run_json(capsys, ["groebner", "--vars", "x", "--laurent", "--gens", "x^2+x+1"])["result"]
    assert (res["unit_ideal"], res["unit_method"], res["unit_witness"]) == (False, "buchberger", None)
    # the polynomial-ring report has neither key
    res = run_json(capsys, ["groebner", "--vars", "x", "--gens", "x"])["result"]
    assert "unit_method" not in res and "unit_witness" not in res


def test_cli_via_subprocess_stdin():
    proc = run_module(["sigma1", "-"], input=F3_TEXT)
    assert proc.returncode == 0
    blob = json.loads(proc.stdout)
    assert blob["result"]["status"] == "out"
    assert blob["result"]["provenance"] == "theorem_a"
    assert len(blob["inputs"]["graph_sha256"]) == 64


def test_cli_subprocess_bad_input_exit_code(tmp_path):
    path = tmp_path / "bad.artin"
    path.write_text("v a\nv a\n")
    proc = run_module(["sigma1", str(path)])
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "input"


def test_console_help_and_usage_error():
    # through the console script's bootstrap, as a shell sees them
    bootstrap = ["-c", "from artin_sigma.cli import main_entry; main_entry()"]
    proc = run_python([*bootstrap, "-h"])
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: artin-sigma COMMAND")
    proc = run_python([*bootstrap, "sigma1", "-", "--mode", "bogus"], input=F3_TEXT)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert json.loads(proc.stderr)["error"] == "input"


@pytest.mark.parametrize("seed", range(3))
def test_graph_digest_is_hashlib_sha256(tmp_path, seed):
    rng = random.Random(seed)
    for size in (0, 1, 55, 56, 63, 64, 65, rng.randrange(100, 100_000)):
        data = rng.randbytes(size)
        expected = hashlib.sha256(data).hexdigest()
        assert cli._sha256()(data).hexdigest() == expected
        # a graph file must be UTF-8 text
        text = data.hex().encode()
        path = tmp_path / f"g{size}.artin"
        path.write_bytes(text)
        assert cli._read_source(str(path))[1] == hashlib.sha256(text).hexdigest()


def test_graph_digest_falls_back_to_hashlib(monkeypatch):
    # a None entry in sys.modules makes the import raise ImportError
    monkeypatch.setitem(sys.modules, "_sha2" if sys.version_info >= (3, 12) else "_sha256", None)
    assert cli._sha256() is hashlib.sha256


K8_TEXT = "".join(f"v x{i}\n" for i in range(8)) + "".join(
    f"e x{i} x{j} 4\n" for i in range(8) for j in range(i + 1, 8)
)


def without_timing(out):
    """A report's text with its last field, ``timing_ms``, cut out."""
    head, sep, tail = out.rpartition(', "timing_ms": ')
    assert not sep or tail.lstrip("0123456789") == "}\n"
    return head + "}\n" if sep else out


@pytest.mark.parametrize(
    "text, argv, expected",
    [
        (K8_TEXT, ["polyhedron"], 0),
        (F1_TEXT, ["kt-certify", "--char", "v=1,s=1,u=-1,w=-1"], 1),
        ("v a\nv a\n", ["sigma1"], 2),
    ],
    ids=["k8-polyhedron", "forest-cycle", "malformed"],
)
def test_console_entry_point_matches_main(tmp_path, capsys, text, argv, expected):
    # the bootstrap of the console script, which freezes the heap before exit
    argv = [argv[0], graph_file(tmp_path, text), *argv[1:]]
    proc = run_python(["-c", "from artin_sigma.cli import main_entry; main_entry()", *argv])
    code, out, err = run_cli(capsys, argv)
    assert (proc.returncode, code) == (expected, expected)
    assert proc.stderr == err
    assert without_timing(proc.stdout) == without_timing(out)
    if expected == 0:
        assert len(out) > 100_000
    else:
        assert out == "" and json.loads(err)["error"] == ("math" if expected == 1 else "input")


def test_json_output_is_deterministic(tmp_path, capsys):
    path = graph_file(tmp_path, F5_TEXT)
    first = run_json(capsys, ["polyhedron", path])
    second = run_json(capsys, ["polyhedron", path])
    first.pop("timing_ms")
    second.pop("timing_ms")
    assert first == second


@pytest.mark.parametrize(
    "argv, message",
    [
        (["groebner", "--vars", "x", "--gens", "1/0*x"], "a number in the polynomial has a zero denominator"),
        (["groebner", "--vars", "x", "--gens", "x^\u0663"], "bad character in polynomial at position 2: '\u0663'"),
        (["fox", "--word", "a^\u0663", "--gen", "a"], "bad word token 'a^\u0663'"),
        (["sigma1", "EDGE", "--char", "a=\u0664,b=1"], "bad rational '\u0664' (expected p or p/q with q > 0)"),
        (["groebner", "--vars", ",", "--gens", "x"], "--vars must name at least one variable"),
        (["groebner", "--vars", "x", "--gens", ","], "no generators given"),
        (["kt-certify", "EDGE", "--bipartition", "a/b/c"], "bipartition must be two '/'-separated vertex lists"),
    ],
    ids=["zero-denominator", "poly-digit", "word-digit", "char-digit", "no-vars", "no-gens", "three-sides"],
)
def test_malformed_numbers_and_lists_are_input_errors(tmp_path, capsys, argv, message):
    path = graph_file(tmp_path, F3_TEXT)
    code, out, err = run_cli(capsys, [path if a == "EDGE" else a for a in argv])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input", "message": message}


@pytest.mark.parametrize("text, sides", [(F3_TEXT, ("a", "b")), (F5_TEXT, ("a", "b,c"))], ids=["edge", "path"])
def test_kt_certify_takes_the_bipartition_sides_in_either_order(tmp_path, capsys, text, sides):
    # dead_edge_forest puts the side of the graph's first vertex, a, on the left
    path = graph_file(tmp_path, text)
    plain, swapped = (run_json(capsys, ["kt-certify", path, "--bipartition", "/".join(order)])["result"]
                      for order in (sides, sides[::-1]))
    assert swapped == plain
    assert plain["conclusion"] == "not_finitely_generated"


def test_cli_import_leaves_networkx_unloaded():
    proc = run_python(["-c", "import sys, artin_sigma.cli; print('networkx' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("label", ["+4", "1_0", "٤"])
def test_cli_rejects_non_ascii_decimal_labels(tmp_path, capsys, label):
    path = tmp_path / "g.artin"
    path.write_text(f"v a\nv b\ne a b {label}\nc a 1\nc b -1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["sigma1", str(path)])
    assert code == 2
    assert out == ""
    assert json.loads(err) == {"error": "input", "message": f"line 3: bad label {label!r}"}


@pytest.mark.parametrize("command", ["sigma1", "polyhedron", "hypothesis", "jacobian", "kt-certify"])
def test_graph_commands_refuse_a_label_past_the_digit_limit(tmp_path, capsys, command):
    # int() would raise Python's int-string ValueError
    path = graph_file(tmp_path, "v a\nv b\ne a b " + "9" * 5000 + "\n")
    code, out, err = run_cli(capsys, [command, path])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "input",
        "message": "line 3: label has more than MAX_COEFFICIENT_DIGITS = 4300 digits",
    }
    # a label of exactly that many digits is read
    path = graph_file(tmp_path, "v a\nv b\ne a b " + "9" * 4300 + "\n")
    assert run_json(capsys, ["hypothesis", path])["result"]["holds"] is True


def test_hypothesis_refuses_a_witness_search_past_its_step_budget(tmp_path, capsys, monkeypatch):
    # the ring of 5 label-4 triangles: the search for its even cycle of 6
    # takes 73 steps, past a budget of 72
    path = tmp_path / "ring5.artin"
    path.write_text("".join(f"v c{i}\nv a{i}\n" for i in range(5)) + "".join(
        f"e c{i} c{(i + 1) % 5} 4\ne c{i} a{i} 4\ne a{i} c{(i + 1) % 5} 4\n" for i in range(5)))
    assert len(run_json(capsys, ["hypothesis", str(path)])["result"]["witness_cycle"]) == 6
    monkeypatch.setattr(graphs, "MAX_CYCLE_SEARCH_STEPS", 72)
    code, out, err = run_cli(capsys, ["hypothesis", str(path)])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input",
                               "message": "the witness cycle search would take more than "
                                          "MAX_CYCLE_SEARCH_STEPS = 72 steps"}


@pytest.mark.parametrize("from_stdin", [False, True])
def test_graph_source_that_is_not_utf8_is_refused(tmp_path, capsys, monkeypatch, from_stdin):
    data = b"\xff\xfe"
    if from_stdin:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        path, name = "-", "stdin"
    else:
        path = name = str(tmp_path / "g.artin")
        (tmp_path / "g.artin").write_bytes(data)
    code, out, err = run_cli(capsys, ["hypothesis", path])
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "input", "message": f"{name} is not UTF-8 text"}
