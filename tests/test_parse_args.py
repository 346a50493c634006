"""The CLI's table parser against argparse, the reference parser in
``oracles.build_parser``.

Every argv of the golden corpus, and seeded rewrites of each (options
reordered, written ``--opt=value``, given twice, ``--format`` moved or
added), must give both parsers the same value for every dest.  Seeded
malformed argv must be refused by both, and by ``main`` with exit code 2 and
one JSON error on stderr.  The deliberate differences have their own test.
"""

import contextlib
import io
import json
import random

import pytest

from artin_sigma.cli import COMMANDS, main, parse_args
from artin_sigma.errors import InputError

from golden_corpus import transcript_groups
from oracles import build_parser

GOLDEN_ARGV = [argv for cases in transcript_groups().values() for argv in cases]

FLAGS = {"--standard", "--laurent"}
CHOICES = {"--mode": ("simple-cycle", "strict"), "--order": ("grevlex", "lex"),
           "--format": ("json", "text")}


def oracle(argv):
    """argparse's values as a dict, or None when it refuses the argv."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def groups(args):
    """The tokens after the command as groups: an option with its values, a
    flag, or a positional."""
    out = []
    for token in args:
        last = out[-1] if out else None
        takes = (last is not None and last[0].startswith("--") and last[0] not in FLAGS
                 and (len(last) == 1 or last[0] == "--gens"))
        if takes and not token.startswith("--"):
            last.append(token)
        else:
            out.append([token])
    return out


def decoy(group, rng):
    """An earlier copy of an option group, with another value where it has one."""
    name = group[0]
    if name in FLAGS:
        return [name]
    if name in CHOICES:
        return [name, rng.choice(CHOICES[name])]
    return [name, "zz"]


def rewrite(argv, rng):
    command, parts = argv[0], groups(argv[1:])
    options = [g for g in parts if g[0].startswith("--")]
    if options and rng.random() < 0.6:
        parts.insert(0, decoy(rng.choice(options), rng))
    formats = [g for g in parts if g[0] == "--format"]
    if not formats and rng.random() < 0.5:
        parts.append(["--format", rng.choice(CHOICES["--format"])])
    rng.shuffle(parts)
    out = [command]
    for g in parts:
        if len(g) == 2 and g[0].startswith("--") and rng.random() < 0.5:
            out.append(f"{g[0]}={g[1]}")
        else:
            out.extend(g)
    return out


def test_golden_argv_parse_alike():
    assert len(GOLDEN_ARGV) > 300
    for argv in GOLDEN_ARGV:
        expected = oracle(argv)
        assert expected is not None, argv
        assert parse_args(argv) == expected, argv


@pytest.mark.parametrize("seed", range(4))
def test_rewritten_argv_parse_alike(seed):
    rng = random.Random(seed)
    for argv in GOLDEN_ARGV:
        rewritten = rewrite(argv, rng)
        expected = oracle(rewritten)
        assert expected is not None, rewritten
        assert parse_args(rewritten) == expected, rewritten


def test_repeated_option_keeps_its_last_value():
    argv = ["groebner", "--order", "lex", "--gens", "x", "--vars", "x", "--gens", "x-1", "x+1",
            "--order", "grevlex"]
    assert parse_args(argv) == oracle(argv)
    assert parse_args(argv)["gens"] == ["x-1", "x+1"]
    assert parse_args(argv)["order"] == "grevlex"


def malformed(argv, rng):
    """One seeded usage error made from a valid argv, with its kind."""
    command, parts = argv[0], groups(argv[1:])
    kinds = ["command", "option", "choice", "value", "extra"]
    if command in ("fox", "groebner"):
        kinds.append("required")
    else:
        kinds.append("positional")
    kind = rng.choice(kinds)
    if kind == "command":
        return kind, [rng.choice(["sigma", "Sigma1", "polyhedra", "groebner2", "help"]), *argv[1:]]
    if kind == "option":
        extra = rng.choice([["--threads", "2"], ["--verbose"], ["--output", "out.json"]])
        at = rng.randrange(len(parts) + 1)
        parts[at:at] = [extra]
    elif kind == "choice":
        names = ["--format"] + {"sigma1": ["--mode"], "hypothesis": ["--mode"],
                                "groebner": ["--order"]}.get(command, [])
        parts.append([rng.choice(names), rng.choice(["bogus", "JSON", "deglex", ""])])
    elif kind == "value":
        parts.append([rng.choice([g[0] for g in parts if g[0].startswith("--")
                                  and g[0] not in FLAGS] + ["--format"])])
    elif kind == "extra":
        parts.insert(0, ["extra.artin"])
    elif kind == "required":
        dropped = rng.choice({"fox": [("--word",), ("--generator", "--gen")],
                              "groebner": [("--vars",), ("--gens",)]}[command])
        parts = [g for g in parts if g[0] not in dropped]
    else:
        parts = [g for g in parts if g[0].startswith("--")]
    return kind, [command] + [token for g in parts for token in g]


@pytest.mark.parametrize("seed", range(3))
def test_malformed_argv_refused_by_both(seed, capsys):
    rng = random.Random(1000 + seed)
    kinds = set()
    for argv in rng.sample(GOLDEN_ARGV, 120):
        kind, bad = malformed(argv, rng)
        kinds.add(kind)
        assert oracle(bad) is None, (kind, bad)
        code = main(bad)
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), (kind, bad)
        blob = json.loads(err)
        assert list(blob) == ["error", "message"] and blob["error"] == "input", (kind, bad)
    assert kinds == {"command", "option", "choice", "value", "extra", "required", "positional"}


@pytest.mark.parametrize("argv, message", [
    ([], "no command given; the commands are sigma1, polyhedron, hypothesis, fox, jacobian, "
         "kt-certify, groebner"),
    (["fox", "--word", "a"], "fox needs --generator"),
    (["polyhedron"], "polyhedron needs a path"),
    (["polyhedron", "a.artin", "b.artin"], "polyhedron takes no argument 'b.artin'"),
    (["sigma1", "a.artin", "--mode", "bogus"],
     "--mode must be one of simple-cycle, strict, not 'bogus'"),
    (["sigma1", "a.artin", "--char"], "--char needs a value"),
    (["sigma1", "a.artin", "--char", "--mode", "strict"], "--char needs a value"),
    (["groebner", "--vars", "x", "--gens", "--laurent"], "--gens needs a value"),
    (["jacobian", "a.artin", "--standard=yes"], "--standard takes no value"),
])
def test_usage_errors_are_json_with_exit_2(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "input", "message": message}


# The deliberate differences from argparse.
@pytest.mark.parametrize("argv", [
    # an abbreviated option (``--gen`` is a second name, not an abbreviation)
    ["fox", "--word", "a b", "--gene", "a"],
    ["sigma1", "g.artin", "--mo", "strict"],
    ["groebner", "--vars", "x", "--gens", "x", "--lau"],
    # ``--``, which does not end the options
    ["polyhedron", "--", "g.artin"],
])
def test_refused_where_argparse_accepts(argv):
    assert oracle(argv) is not None
    with pytest.raises(InputError, match="has no option"):
        parse_args(argv)


@pytest.mark.parametrize("argv, dest, value", [
    (["groebner", "--vars", "x,y", "--gens", "-x", "-y+1"], "gens", ["-x", "-y+1"]),
    (["fox", "--word", "-a", "--generator", "a"], "word", "-a"),
])
def test_value_may_start_with_one_dash_where_argparse_refuses(argv, dest, value):
    assert oracle(argv) is None
    assert parse_args(argv)[dest] == value


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["sigma1", "-h"],
                                  ["groebner", "--vars", "x", "--help"], ["bogus", "-h"]])
def test_help_lists_every_command_and_option(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: artin-sigma COMMAND")
    for command, spec in COMMANDS.items():
        assert f"\n{command}: {spec['help']}\n" in out
        for name in [dest.upper() for dest, _ in spec["positionals"]]:
            assert f"  {name} " in out
        for name in [*spec["options"], *spec["flags"]]:
            assert f"  {name} " in out
