"""Command line front end.

Every subcommand prints a single JSON report on stdout::

    {"command": ..., "inputs": ..., "result": ..., "timing_ms": ...}

``--format text`` swaps the report for a short human-readable summary.
Errors are one JSON object on stderr; the exit code is 2 for malformed
input, a usage error included, and 1 for a violated mathematical
precondition.

The arguments are read off one table, ``COMMANDS``: the subcommand comes
first, then its positionals and options in any order.  An option is named
in full, as ``--opt value`` or ``--opt=value``; a repeated one keeps its
last value, and ``--gens`` takes every value up to the next ``--`` token.
``-h`` or ``--help`` anywhere prints the usage built from the table.
"""

from __future__ import annotations

import gc
import json
import sys
import time

from .errors import InputError, MathError

MOD_P_PRIMES = (2, 3, 5, 7, 11)

# Literal copies of graphs.HYPOTHESIS_MODES / SIMPLE_CYCLE and of
# sorted(groebner.ORDER_KEYS) / DEFAULT_ORDER, so that parsing the arguments
# loads neither module; tests/test_imports.py pins them to those homes.
MODES, DEFAULT_MODE = ("simple-cycle", "strict"), "simple-cycle"
ORDERS, DEFAULT_ORDER = ("grevlex", "lex"), "grevlex"

_PROVENANCE_TEXT = {
    "mmw_sufficient": "living subgraph connected: sufficient condition",
    "mmw_necessary": "support subgraph disconnected or not dominant: necessary condition fails",
    "theorem_a": "even labels with the cycle condition: dead edges disconnect",
    "low_cycle_rank": "cycle rank at most 2: dead edges disconnect",
    "conjecture_only": "conjectured complement membership",
}


def _sha256():
    """The SHA-256 constructor of the interpreter's own SHA-2 module
    (``_sha2`` from Python 3.12, ``_sha256`` before), which, unlike
    ``hashlib``, loads no OpenSSL; ``hashlib``'s where that module is not
    built.  The digests are the same."""
    try:
        return __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
    except ImportError:
        from hashlib import sha256

        return sha256


def _read_source(path: str):
    """Return (text, sha256 hex) for a file path or '-' for stdin."""
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc.strerror}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise InputError(f"{'stdin' if path == '-' else path} is not UTF-8 text") from None
    return text, _sha256()(data).hexdigest()


def _load_graph_and_char(path: str, char_override):
    from .graphs import parse_artin

    text, digest = _read_source(path)
    graph, inline_spec = parse_artin(text)
    spec = char_override if char_override is not None else inline_spec
    return graph, spec, digest


def _require_char(graph, spec):
    from .characters import parse_character

    if spec is None:
        raise InputError("no character given (use --char or c lines in the input)")
    return parse_character(graph, spec)


def _emit(report: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(report))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (inputs, result, text_lines) and imports
# what it uses when it runs; ``main`` loads those modules before its clock.
# text_lines may be a generator, which ``_emit`` reads only for text output.


def _cmd_sigma1(args):
    from .decision import decide_sigma1

    graph, spec, digest = _load_graph_and_char(args["path"], args["char"])
    chi = _require_char(graph, spec)
    verdict = decide_sigma1(chi, args["mode"])
    inputs = {"graph_sha256": digest, "character": spec, "mode": args["mode"]}
    status = {
        "in": "IN Sigma^1",
        "out": "NOT in Sigma^1",
        "out_conjectural": "NOT in Sigma^1 (conjectural)",
    }[verdict.status]
    line = f"{status} ({_PROVENANCE_TEXT[verdict.provenance]})"
    return inputs, verdict.to_json_dict(), [line]


def _cmd_polyhedron(args):
    from .polyhedron import complement_polyhedron

    graph, _, digest = _load_graph_and_char(args["path"], None)
    poly = complement_polyhedron(graph)
    inputs = {"graph_sha256": digest}
    return inputs, poly.to_json_dict(), _piece_lines(poly)


def _piece_lines(poly):
    """The text lines of a polyhedron, made as ``_emit`` prints them, so
    that ``--format json`` makes none."""
    yield f"pieces: {len(poly.pieces)}"
    for piece in poly.pieces:
        tag = f"{piece.kind} zero_set={{{','.join(piece.zero_set)}}}"
        if piece.cut:
            cut = ",".join(f"({u},{v})" for u, v in piece.cut_edges)
            tag += f" cut={{{cut}}}"
        forms = "; ".join(" + ".join(f) for f in piece.forms)
        yield f"  {tag}: {forms}"


def _cmd_hypothesis(args):
    from .graphs import hypothesis_witness

    graph, _, digest = _load_graph_and_char(args["path"], None)
    witness = hypothesis_witness(graph, args["mode"])
    holds = witness is None
    inputs = {"graph_sha256": digest, "mode": args["mode"]}
    result = {"holds": holds, "witness_cycle": witness}
    line = "holds" if holds else f"fails (witness cycle: {' '.join(witness)})"
    return inputs, result, [line]


def _cmd_fox(args):
    from .fox import fox_derivative, parse_word

    word = parse_word(args["word"])
    deriv = fox_derivative(word, args["generator"])
    ordered = sorted(deriv.items(), key=lambda wc: (len(wc[0]), str(wc[0])))
    inputs = {"word": args["word"], "generator": args["generator"]}
    result = {
        "word": str(word),
        "generator": args["generator"],
        "derivative": {str(w): c for w, c in ordered},
    }
    return inputs, result, [f"d/d{args['generator']} ({word}) = {deriv}"]


def _cmd_jacobian(args):
    from .fox import abelianization_map, graph_presentation, jacobian

    graph, _, digest = _load_graph_and_char(args["path"], None)
    gens, relators = graph_presentation(graph, even_form=not args["standard"])
    amap = abelianization_map(graph)
    jac = jacobian(gens, relators, amap)
    inputs = {"graph_sha256": digest, "standard": args["standard"]}
    result = {
        "generators": list(jac.generators),
        "relators": [str(r) for r in jac.relators],
        "variables": list(jac.variables),
        "matrix": [[e.to_string() for e in row] for row in jac.entries],
    }
    lines = []
    for rel, row in zip(result["relators"], result["matrix"]):
        lines.append(f"{rel}: [" + ", ".join(row) + "]")
    return inputs, result, lines


def _parse_bipartition(text: str):
    if text is None:
        return None
    sides = text.split("/")
    if len(sides) != 2:
        raise InputError("bipartition must be two '/'-separated vertex lists")
    out = []
    for side in sides:
        names = [n.strip() for n in side.split(",") if n.strip()]
        if not names:
            raise InputError("bipartition sides must be nonempty")
        out.append(tuple(names))
    return tuple(out)


def _cmd_kt_certify(args):
    from .presentations import certify_not_finitely_generated, dead_edge_forest

    graph, spec, digest = _load_graph_and_char(args["path"], args["char"])
    chi = _require_char(graph, spec)
    if not chi.is_integral():
        chi = chi.primitive_integer()
    bipartition = _parse_bipartition(args["bipartition"])
    forest = dead_edge_forest(chi, bipartition)
    cert = certify_not_finitely_generated(forest, chi)
    inputs = {"graph_sha256": digest, "character": spec, "bipartition": args["bipartition"]}
    line = (
        f"{cert.conclusion}: rank {cert.rank} of {cert.generators} generators "
        f"(M={cert.order})"
    )
    return inputs, cert.to_json_dict(), [line]


def _cmd_groebner(args):
    from .groebner import buchberger, laurent_unit_report, unit_ideal_mod_p
    from .laurent import parse_poly

    variables = tuple(v.strip() for v in args["vars"].split(",") if v.strip())
    if not variables:
        raise InputError("--vars must name at least one variable")
    gens = []
    for chunk in args["gens"]:
        for text in chunk.split(","):
            text = text.strip()
            if text:
                gens.append(parse_poly(text, variables))
    if not gens:
        raise InputError("no generators given")
    if args["laurent"]:
        unit, basis, _aux, method, witness = laurent_unit_report(gens, order=args["order"])
    else:
        basis = buchberger(gens, order=args["order"])
        unit = len(basis) == 1 and basis[0].is_constant()
    mod_p = {}
    for p in MOD_P_PRIMES:
        try:
            mod_p[str(p)] = unit_ideal_mod_p(gens, p, laurent=args["laurent"])
        except (InputError, MathError, ArithmeticError):
            mod_p[str(p)] = None
    inputs = {
        "variables": list(variables),
        "generators": [g.to_string() for g in gens],
        "order": args["order"],
        "laurent": args["laurent"],
    }
    result = {
        "basis": [b.to_string() for b in basis],
        "unit_ideal": unit,
        "mod_p": mod_p,
    }
    if args["laurent"]:
        result["unit_method"] = method
        result["unit_witness"] = witness
    lines = [f"unit ideal: {'yes' if unit else 'no'}"]
    lines += [f"  {b.to_string()}" for b in basis]
    return inputs, result, lines


# ---------------------------------------------------------------------------
# the argument table, which ``parse_args`` reads and ``usage`` prints

DESCRIPTION = ("Character membership, complement polyhedra, and certificates "
               "for Artin groups of labeled graphs.")


def _option(dest, help="", choices=None, default=None, required=False, many=False) -> dict:
    """One option of the table: the dest its value goes to, the values it
    accepts, its default, whether it must be given, and, with ``many``,
    whether it takes every value up to the next ``--`` token as a list."""
    return {"dest": dest, "help": help, "choices": choices, "default": default,
            "required": required, "many": many}


_PATH = ("path", "graph file ('-' for stdin)")
_CHAR = _option("char", "character spec name=value,... (overrides c lines)")
_MODE = _option("mode", "reading of the cycle condition", MODES, DEFAULT_MODE)
_FORMAT = {"--format": _option("format", "report format", ("json", "text"), "json")}

# Each subcommand's help line, body, the package modules its body imports
# (which ``main`` loads before its clock), positionals as (dest, help),
# options by name and flags by name as (dest, help).
COMMANDS = {
    "sigma1": {
        "help": "decide membership of a character",
        "body": _cmd_sigma1,
        "modules": ("decision",),
        "positionals": (_PATH,),
        "options": {"--char": _CHAR, "--mode": _MODE, **_FORMAT},
        "flags": {},
    },
    "polyhedron": {
        "help": "complement polyhedron pieces",
        "body": _cmd_polyhedron,
        "modules": ("polyhedron",),
        "positionals": (_PATH,),
        "options": dict(_FORMAT),
        "flags": {},
    },
    "hypothesis": {
        "help": "structural cycle condition",
        "body": _cmd_hypothesis,
        "modules": ("graphs",),
        "positionals": (_PATH,),
        "options": {"--mode": _MODE, **_FORMAT},
        "flags": {},
    },
    "fox": {
        "help": "free differential of a word",
        "body": _cmd_fox,
        "modules": ("fox",),
        "positionals": (),
        "options": {
            "--word": _option("word", "word like 'a b^-1 a^2' ('1' = identity)", required=True),
            "--generator": _option("generator", "generator to differentiate by", required=True),
            # a second name, which the README's fox example uses
            "--gen": _option("generator", "same as --generator"),
            **_FORMAT,
        },
        "flags": {},
    },
    "jacobian": {
        "help": "abelianized Fox Jacobian",
        "body": _cmd_jacobian,
        "modules": ("fox", "graphs", "laurent"),
        "positionals": (_PATH,),
        "options": dict(_FORMAT),
        "flags": {"--standard": ("standard", "standard relators on even edges too")},
    },
    "kt-certify": {
        "help": "non-finite-generation rank certificate",
        "body": _cmd_kt_certify,
        "modules": ("presentations",),
        "positionals": (_PATH,),
        "options": {
            "--char": _CHAR,
            "--bipartition": _option("bipartition", "two '/'-separated vertex lists, e.g. a,c/b"),
            **_FORMAT,
        },
        "flags": {},
    },
    "groebner": {
        "help": "Groebner basis / unit ideal",
        "body": _cmd_groebner,
        "modules": ("groebner",),
        "positionals": (),
        "options": {
            "--vars": _option("vars", "comma-separated variable names", required=True),
            "--gens": _option("gens", "generator polynomials", required=True, many=True),
            "--order": _option("order", "monomial order", ORDERS, DEFAULT_ORDER),
            **_FORMAT,
        },
        "flags": {"--laurent": ("laurent", "invert all variables")},
    },
}


def parse_args(argv) -> dict | None:
    """The values of one call: ``command`` and every dest of its subcommand,
    unset options at their defaults and flags False; None when ``-h`` or
    ``--help`` asks for the usage.  A usage error is an InputError."""
    if "-h" in argv or "--help" in argv:
        return None
    if not argv or argv[0] not in COMMANDS:
        given = f"unknown command {argv[0]!r}" if argv else "no command given"
        raise InputError(f"{given}; the commands are {', '.join(COMMANDS)}")
    command, rest = argv[0], argv[1:]
    spec = COMMANDS[command]
    options, flags = spec["options"], spec["flags"]
    args = {"command": command}
    args.update((opt["dest"], opt["default"]) for opt in options.values())
    args.update((dest, False) for dest, _ in flags.values())
    positionals = []
    i = 0
    while i < len(rest):
        token = rest[i]
        i += 1
        if not token.startswith("--"):
            positionals.append(token)
            continue
        name, eq, value = token.partition("=")
        if name in flags:
            if eq:
                raise InputError(f"{name} takes no value")
            args[flags[name][0]] = True
            continue
        opt = options.get(name)
        if opt is None:
            raise InputError(f"{command} has no option {name}")
        if eq:
            values = [value]
        else:
            # the tokens up to the next -- token: all for ``many``, else the first
            end = i
            while end < len(rest) and not rest[end].startswith("--"):
                end += 1
            if not opt["many"]:
                end = min(end, i + 1)
            values, i = rest[i:end], end
            if not values:
                raise InputError(f"{name} needs a value")
        for v in values:
            if opt["choices"] and v not in opt["choices"]:
                raise InputError(f"{name} must be one of {', '.join(opt['choices'])}, not {v!r}")
        args[opt["dest"]] = values if opt["many"] else values[0]
    names = spec["positionals"]
    if len(positionals) > len(names):
        raise InputError(f"{command} takes no argument {positionals[len(names)]!r}")
    if len(positionals) < len(names):
        raise InputError(f"{command} needs a {names[len(positionals)][0]}")
    args.update(zip((dest for dest, _ in names), positionals))
    for name, opt in options.items():
        if opt["required"] and args[opt["dest"]] is None:
            raise InputError(f"{command} needs {name}")
    return args


def usage() -> str:
    """The help text, read off ``COMMANDS``."""
    lines = ["usage: artin-sigma COMMAND [ARGUMENT | --OPTION VALUE | --OPTION=VALUE | --FLAG]...",
             "", DESCRIPTION]
    for command, spec in COMMANDS.items():
        rows = [(dest.upper(), help) for dest, help in spec["positionals"]]
        for name, opt in spec["options"].items():
            value = "{" + ",".join(opt["choices"]) + "}" if opt["choices"] else opt["dest"].upper()
            note = opt["help"]
            if opt["required"]:
                note += " (required)"
            elif opt["default"] is not None:
                note += f" (default {opt['default']})"
            rows.append((f"{name} {value}{' ...' if opt['many'] else ''}", note))
        rows += [(name, help) for name, (_, help) in spec["flags"].items()]
        lines += ["", f"{command}: {spec['help']}"]
        lines += [f"  {left:<30} {right}" for left, right in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args is None:
            print(usage())
            return 0
        spec = COMMANDS[args["command"]]
        # Load what the body imports before starting the clock, so that
        # timing_ms leaves imports out: the package modules its table row
        # names, and the SHA-256 module for a graph file.  __import__, not
        # importlib.import_module, which -X importtime does not list.
        for module in spec["modules"]:
            __import__(f"{__package__}.{module}")
        if "path" in args:
            _sha256()
        start = time.perf_counter()
        inputs, result, text_lines = spec["body"](args)
        elapsed_ms = int(round((time.perf_counter() - start) * 1000))
        report = {
            "command": args["command"],
            "inputs": inputs,
            "result": result,
            "timing_ms": elapsed_ms,
        }
        _emit(report, args["format"], text_lines)
        return 0
    except InputError as exc:
        print(json.dumps({"error": "input", "message": str(exc)}), file=sys.stderr)
        return 2
    except MathError as exc:
        print(json.dumps({"error": "math", "message": str(exc)}), file=sys.stderr)
        return 1


def main_entry() -> None:
    code = main(argv=None)
    # The interpreter runs full collections as it exits; move every object
    # alive now to the permanent generation, which they skip.  Output is
    # flushed and atexit handlers run as on any exit.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
