"""Command line front end.

Every subcommand prints a single JSON report on stdout::

    {"command": ..., "inputs": ..., "result": ..., "timing_ms": ...}

``--format text`` swaps the report for a short human-readable summary.
Errors are one JSON object on stderr; the exit code is 2 for malformed
input and 1 for a violated mathematical precondition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time

from .characters import parse_character
from .errors import InputError, MathError
from .fox import fox_derivative, graph_presentation, jacobian, abelianization_map, parse_word
from .graphs import HYPOTHESIS_MODES, SIMPLE_CYCLE, hypothesis_witness, parse_artin
from .groebner import ORDER_KEYS, DEFAULT_ORDER, buchberger, laurent_unit_ideal, unit_ideal_mod_p
from .laurent import parse_poly
from .polyhedron import complement_polyhedron
from .presentations import certify_not_finitely_generated, dead_edge_forest
from .decision import decide_sigma1

MOD_P_PRIMES = (2, 3, 5, 7, 11)

_PROVENANCE_TEXT = {
    "mmw_sufficient": "living subgraph connected: sufficient condition",
    "mmw_necessary": "support subgraph disconnected or not dominant: necessary condition fails",
    "theorem_a": "even labels with the cycle condition: dead edges disconnect",
    "low_cycle_rank": "cycle rank at most 2: dead edges disconnect",
    "conjecture_only": "conjectured complement membership",
}


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
    return data.decode("utf-8"), hashlib.sha256(data).hexdigest()


def _load_graph_and_char(path: str, char_override):
    text, digest = _read_source(path)
    graph, inline_spec = parse_artin(text)
    spec = char_override if char_override is not None else inline_spec
    return graph, spec, digest


def _require_char(graph, spec):
    if spec is None:
        raise InputError("no character given (use --char or c lines in the input)")
    return parse_character(graph, spec)


def _form_text(form) -> str:
    parts = []
    for v, c in form.coeffs:
        mag = v if abs(c) == 1 else f"{abs(c)}*{v}"
        if not parts:
            parts.append(mag if c > 0 else f"-{mag}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {mag}")
    return " ".join(parts)


def _emit(report: dict, fmt: str, text_lines) -> None:
    if fmt == "json":
        print(json.dumps(report))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (inputs, result, text_lines)


def _cmd_sigma1(args):
    graph, spec, digest = _load_graph_and_char(args.path, args.char)
    chi = _require_char(graph, spec)
    verdict = decide_sigma1(chi, args.mode)
    inputs = {"graph_sha256": digest, "character": spec, "mode": args.mode}
    status = {
        "in": "IN Sigma^1",
        "out": "NOT in Sigma^1",
        "out_conjectural": "NOT in Sigma^1 (conjectural)",
    }[verdict.status]
    line = f"{status} ({_PROVENANCE_TEXT[verdict.provenance]})"
    return inputs, verdict.to_json_dict(), [line]


def _cmd_polyhedron(args):
    graph, _, digest = _load_graph_and_char(args.path, None)
    poly = complement_polyhedron(graph)
    inputs = {"graph_sha256": digest}
    lines = [f"pieces: {len(poly.pieces)}"]
    for piece in poly.pieces:
        origin = piece.origin
        tag = f"{origin.kind} zero_set={{{','.join(origin.zero_set)}}}"
        if origin.cut_edges:
            cut = ",".join(f"({u},{v})" for u, v in origin.cut_edges)
            tag += f" cut={{{cut}}}"
        lines.append(f"  {tag}: " + "; ".join(_form_text(f) for f in piece.forms))
    return inputs, poly.to_json_dict(), lines


def _cmd_hypothesis(args):
    graph, _, digest = _load_graph_and_char(args.path, None)
    witness = hypothesis_witness(graph, args.mode)
    holds = witness is None
    inputs = {"graph_sha256": digest, "mode": args.mode}
    result = {"holds": holds, "witness_cycle": witness}
    line = "holds" if holds else f"fails (witness cycle: {' '.join(witness)})"
    return inputs, result, [line]


def _cmd_fox(args):
    word = parse_word(args.word)
    deriv = fox_derivative(word, args.generator)
    ordered = sorted(deriv.items(), key=lambda wc: (len(wc[0]), str(wc[0])))
    inputs = {"word": args.word, "generator": args.generator}
    result = {
        "word": str(word),
        "generator": args.generator,
        "derivative": {str(w): c for w, c in ordered},
    }
    return inputs, result, [f"d/d{args.generator} ({word}) = {deriv}"]


def _cmd_jacobian(args):
    graph, _, digest = _load_graph_and_char(args.path, None)
    gens, relators = graph_presentation(graph, even_form=not args.standard)
    amap = abelianization_map(graph)
    jac = jacobian(gens, relators, amap)
    inputs = {"graph_sha256": digest, "standard": args.standard}
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
    graph, spec, digest = _load_graph_and_char(args.path, args.char)
    chi = _require_char(graph, spec)
    if not chi.is_integral():
        chi = chi.primitive_integer()
    bipartition = _parse_bipartition(args.bipartition)
    forest = dead_edge_forest(chi, bipartition)
    cert = certify_not_finitely_generated(forest, chi)
    inputs = {"graph_sha256": digest, "character": spec, "bipartition": args.bipartition}
    line = (
        f"{cert.conclusion}: rank {cert.rank} of {cert.generators} generators "
        f"(M={cert.order})"
    )
    return inputs, cert.to_json_dict(), [line]


def _cmd_groebner(args):
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    if not variables:
        raise InputError("--vars must name at least one variable")
    gens = []
    for chunk in args.gens:
        for text in chunk.split(","):
            text = text.strip()
            if text:
                gens.append(parse_poly(text, variables))
    if not gens:
        raise InputError("no generators given")
    if args.laurent:
        unit, basis, _aux = laurent_unit_ideal(gens, order=args.order)
    else:
        basis = buchberger(gens, order=args.order)
        unit = len(basis) == 1 and basis[0].is_constant()
    mod_p = {}
    for p in MOD_P_PRIMES:
        try:
            mod_p[str(p)] = unit_ideal_mod_p(gens, p, laurent=args.laurent)
        except (InputError, MathError, ArithmeticError):
            mod_p[str(p)] = None
    inputs = {
        "variables": list(variables),
        "generators": [g.to_string() for g in gens],
        "order": args.order,
        "laurent": args.laurent,
    }
    result = {
        "basis": [b.to_string() for b in basis],
        "unit_ideal": unit,
        "mod_p": mod_p,
    }
    lines = [f"unit ideal: {'yes' if unit else 'no'}"]
    lines += [f"  {b.to_string()}" for b in basis]
    return inputs, result, lines


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artin-sigma",
        description="Character membership, complement polyhedra, and certificates "
        "for Artin groups of labeled graphs.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma1", parents=[common], help="decide membership of a character")
    p.add_argument("path", help="graph file ('-' for stdin)")
    p.add_argument("--char", help="character spec name=value,... (overrides c lines)")
    p.add_argument("--mode", choices=HYPOTHESIS_MODES, default=SIMPLE_CYCLE)
    p.set_defaults(body=_cmd_sigma1)

    p = sub.add_parser("polyhedron", parents=[common], help="complement polyhedron pieces")
    p.add_argument("path", help="graph file ('-' for stdin)")
    p.set_defaults(body=_cmd_polyhedron)

    p = sub.add_parser("hypothesis", parents=[common], help="structural cycle condition")
    p.add_argument("path", help="graph file ('-' for stdin)")
    p.add_argument("--mode", choices=HYPOTHESIS_MODES, default=SIMPLE_CYCLE)
    p.set_defaults(body=_cmd_hypothesis)

    p = sub.add_parser("fox", parents=[common], help="free differential of a word")
    p.add_argument("--word", required=True, help="word like 'a b^-1 a^2' ('1' = identity)")
    p.add_argument("--generator", required=True)
    p.set_defaults(body=_cmd_fox)

    p = sub.add_parser("jacobian", parents=[common], help="abelianized Fox Jacobian")
    p.add_argument("path", help="graph file ('-' for stdin)")
    p.add_argument("--standard", action="store_true", help="standard relators on even edges too")
    p.set_defaults(body=_cmd_jacobian)

    p = sub.add_parser(
        "kt-certify", parents=[common], help="non-finite-generation rank certificate"
    )
    p.add_argument("path", help="graph file ('-' for stdin)")
    p.add_argument("--char", help="character spec name=value,... (overrides c lines)")
    p.add_argument("--bipartition", help="two '/'-separated vertex lists, e.g. a,c/b")
    p.set_defaults(body=_cmd_kt_certify)

    p = sub.add_parser("groebner", parents=[common], help="Groebner basis / unit ideal")
    p.add_argument("--vars", required=True, help="comma-separated variable names")
    p.add_argument("--gens", required=True, nargs="+", help="generator polynomials")
    p.add_argument("--order", choices=sorted(ORDER_KEYS), default=DEFAULT_ORDER)
    p.add_argument("--laurent", action="store_true", help="invert all variables")
    p.set_defaults(body=_cmd_groebner)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        start = time.perf_counter()
        inputs, result, text_lines = args.body(args)
        elapsed_ms = int(round((time.perf_counter() - start) * 1000))
        report = {
            "command": args.command,
            "inputs": inputs,
            "result": result,
            "timing_ms": elapsed_ms,
        }
        _emit(report, args.format, text_lines)
        return 0
    except InputError as exc:
        print(json.dumps({"error": "input", "message": str(exc)}), file=sys.stderr)
        return 2
    except MathError as exc:
        print(json.dumps({"error": "math", "message": str(exc)}), file=sys.stderr)
        return 1


def main_entry() -> None:
    sys.exit(main(argv=None))


if __name__ == "__main__":
    main_entry()
