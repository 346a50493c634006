"""Regenerate the recorded pools under ``data/`` and their expected answers.

    python3 perfbench/record.py [--only NAME ...]

Run from the repository root.  Inputs come from the generators in
``corpus.py`` seeded with ``corpus.MASTER_SEED``; expected answers are what
the package in ``src/`` returns for them.  The pools were recorded once, at
the commit that added the benchmark, and a run compares against them, so
re-recording is only right when an answer is meant to change.  Prints the
time each input took, which is how the corpus groups were sized.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
import time

import corpus

sys.path.insert(0, corpus.SRC)

import workloads as W  # noqa: E402

def timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def dump(name, obj):
    """Indented JSON, except that lists of plain values stay on one line."""
    os.makedirs(corpus.DATA_DIR, exist_ok=True)
    text = json.dumps(obj, indent=1, sort_keys=True)
    text = re.sub(r"\[[^\[\]{}]*\]", lambda m: re.sub(r"\s*\n\s*", " ", m.group(0)), text)
    with open(corpus.pool_path(name), "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------


def record_polyhedron_build(rng):
    """C8 and C9 with label 4, and groups of even-labelled graphs and of
    mixed-label graphs with odd labels and 2s, each group with fixed vertex
    and removable-edge counts."""
    groups = [("C8-label4", 1, lambda: corpus.cycle_graph(8, 4, prefix="c")),
              ("C9-label4", 1, lambda: corpus.cycle_graph(9, 4, prefix="c"))]
    # (vertices, removable edges, other edges, graphs): more of the cheap
    # small graphs, so a pass holds enough jobs for a tail percentile.
    for kind, other_labels, shapes in (
            ("even", (2,), ((6, 5, 2, 6), (6, 6, 2, 6), (7, 5, 3, 4), (7, 6, 2, 4), (8, 5, 5, 3))),
            ("mixed", (2, 3, 5), ((6, 4, 4, 6), (7, 5, 4, 4), (8, 5, 5, 3)))):
        for n, k, other, count in shapes:
            groups.append((f"{kind}-{n}v-{k}r", count,
                           lambda n=n, k=k, o=other, ls=other_labels: corpus.cut_graph(rng, n, k, o, ls)))
    graphs = []
    for name, count, make in groups:
        for _ in range(count):
            text = corpus.graph_text(*make())
            poly, dt = timed(W.polyhedron.complement_polyhedron, W.parse_graph(text))
            print(f"  {name}: {len(poly.pieces)} pieces, {dt:.3f}s", flush=True)
            graphs.append({"id": len(graphs), "group": name, "text": text,
                           "digest": W.polyhedron_digest(poly), "pieces": len(poly.pieces)})
    return {"graphs": graphs}


def distinct_characters(rng, vertices, edges, count):
    out, seen = [], []
    for _ in range(50 * count):
        values = corpus.random_character(rng, vertices, edges)
        key = [str(values[v]) for v in vertices]
        if key not in seen:
            seen.append(key)
            out.append(values)
        if len(out) == count:
            break
    return out


def record_membership_stream(rng, n_graphs=200, per_graph=16):
    graphs = []
    tally = {}
    total = 0.0
    for i in range(n_graphs):
        even = i % 2 == 0
        if even:
            vertices, edges = corpus.random_graph(rng, rng.randint(3, 5), (2, 4, 6), 0.6)
        else:
            vertices, edges = corpus.random_graph(rng, rng.randint(3, 6), (2, 3, 4, 5, 6), 0.5)
        text = corpus.graph_text(vertices, edges)
        graph = W.parse_graph(text)
        poly, dt = timed(W.polyhedron.complement_polyhedron, graph)
        total += dt
        chars = []
        for values in distinct_characters(rng, vertices, edges, per_graph):
            status, provenance, member = W.verdict_record(poly, W.characters.character(graph, values))
            if member != (status != W.decision.STATUS_IN):
                raise SystemExit(f"polyhedron and decision disagree on {text!r} {values}")
            tally[provenance] = tally.get(provenance, 0) + 1
            chars.append([[str(values[v]) for v in vertices], status, provenance])
        graphs.append({"text": text, "even": even, "digest": W.polyhedron_digest(poly),
                       "characters": chars})
    print(f"  {n_graphs} polyhedra in {total:.2f}s; provenance {tally}", flush=True)
    return {"graphs": graphs}


def record_algebra_evidence(rng):
    """Certificates on bipartite forests with sides of 1-3 vertices and
    labels 4, 6, 8 (so M <= 12), three of them 3x3; Laurent unit-ideal tests
    on the README system, label-4 cycle systems and sparse seeded ideals in
    3-4 variables."""
    certificates = []
    for name, shapes in (("3x3", ((3, 3),) * 3), ("2x3", ((2, 3), (3, 2)) * 2),
                         ("2x2", ((2, 2),) * 3), ("small", ((1, 3), (3, 1), (1, 2), (2, 1)))):
        for nl, nr in shapes:
            left, right, edges, values = corpus.random_forest(rng, nl, nr)
            item = {"left": list(left), "right": list(right), "edges": [list(e) for e in edges],
                    "values": values, "group": name}
            out, dt = timed(W.certificate_job, W.make_forest(item), values)
            print(f"  certificate {nl}x{nr} ({len(edges)} edges): {out}, {dt:.3f}s", flush=True)
            certificates.append(dict(item, expected=out))

    raw = [dict(corpus.CRITERION_2, group="criterion-2")]
    raw += [dict(zip(("vars", "gens"), corpus.cycle_sum_system(n, 4)), group="label4-cycles")
            for n in (3, 4, 5, 6)]
    for name, count, shape in (("binomial-3v-3g-deg2", 10, (3, 3, 2, 2, False)),
                               ("binomial-4v-4g-deg1", 8, (4, 4, 2, 1, False)),
                               ("trinomial-4v-3g-unit", 8, (4, 3, 3, 1, True)),
                               ("binomial-4v-4g-unit", 4, (4, 4, 2, 1, True))):
        for _ in range(count):
            variables, gens = corpus.sparse_ideal(rng, *shape)
            raw.append({"vars": list(variables), "gens": gens, "group": name})
    systems = []
    for item in raw:
        out, dt = timed(W.laurent_job, W.parse_system(item))
        print(f"  groebner {item['group']}: unit={out['unit']} basis={len(out['basis'])}, {dt:.3f}s",
              flush=True)
        systems.append(dict(item, expected=out))
    return {"certificates": certificates, "systems": systems}


def record_cli_mix(rng):
    entries = {c: [] for c in ("sigma1", "polyhedron", "hypothesis", "fox", "jacobian",
                               "kt-certify", "groebner")}

    def add(command, argv, stdin=None):
        entries[command].append((argv, stdin))

    seeded = [corpus.random_graph(rng, rng.randint(3, 6), (2, 3, 4, 5, 6), 0.5) for _ in range(8)]
    # README examples
    add("sigma1", ["sigma1", "-"], corpus.SQUARE)
    add("polyhedron", ["polyhedron", "-"], corpus.PATH)
    add("hypothesis", ["hypothesis", "-"], corpus.SQUARE)
    add("kt-certify", ["kt-certify", "-", "--bipartition", "a,c/b"], corpus.PATH)
    add("groebner", ["groebner", "--vars", ",".join(corpus.CRITERION_2["vars"]), "--laurent",
                     "--gens", *corpus.CRITERION_2["gens"]])
    add("fox", ["fox", "--word", "a^-1 b^-1 a b", "--generator", "a"])
    add("jacobian", ["jacobian", "-"], corpus.PATH)
    # fixtures and seeded graphs
    for text in corpus.FIXTURES + tuple(corpus.graph_text(*g) for g in seeded[:4]):
        graph = W.parse_graph(text)
        values = corpus.random_character(rng, graph.vertices, graph.edges)
        spec = corpus.char_spec(values, graph.vertices)
        mode = rng.choice(("simple-cycle", "simple-cycle", "strict"))
        add("sigma1", ["sigma1", "-", "--char", spec, "--mode", mode], text)
    for text in corpus.FIXTURES + tuple(corpus.graph_text(*g) for g in seeded):
        add("polyhedron", ["polyhedron", "-"], text)
        add("hypothesis", ["hypothesis", "-", "--mode", rng.choice(("simple-cycle", "strict"))], text)
        add("jacobian", ["jacobian", "-", *(["--standard"] if rng.random() < 0.3 else [])], text)
    add("kt-certify", ["kt-certify", "-", "--char", "a=1,b=-1"], corpus.F3)
    add("kt-certify", ["kt-certify", "-", "--char", "a0=1,a1=-1,a2=1,a3=1"], corpus.F4)
    for nl, nr in ((1, 2), (2, 1), (2, 2), (1, 3), (2, 2), (2, 3), (3, 2)):
        left, right, edges, values = corpus.random_forest(rng, nl, nr)
        add("kt-certify", ["kt-certify", "-"], corpus.forest_graph_text(left, right, edges, values))
    for _ in range(10):
        word = corpus.random_word(rng, ("a", "b", "c"), 6)
        add("fox", ["fox", "--word", word, "--generator", rng.choice(("a", "b", "c"))])
    systems = [corpus.cycle_sum_system(n, 4) for n in (3, 4, 5, 6)]
    systems += [corpus.sparse_ideal(rng, 3, 3, 2, 2, False) for _ in range(3)]
    systems += [corpus.sparse_ideal(rng, 4, 3, 3, 1, True) for _ in range(3)]
    for variables, gens in systems:
        add("groebner", ["groebner", "--vars", ",".join(variables), "--laurent", "--gens", *gens])

    jobs = {}
    for command, items in entries.items():
        jobs[command] = []
        for argv, stdin in items:
            (code, stdout), dt = timed(W.run_cli, argv, stdin)
            report = json.loads(stdout) if code == 0 else None
            if code != 0:
                raise SystemExit(f"CLI job failed at record time: {argv} exit {code}")
            print(f"  {command}: {dt:.3f}s (timing_ms {report['timing_ms']})", flush=True)
            jobs[command].append({"kind": command, "argv": argv, "stdin": stdin,
                                  "expected": {"exit": code, "result": report["result"]}})
    return {"commands": list(entries), "jobs": jobs}


RECORDERS = {
    "cli-mix": record_cli_mix,
    "polyhedron-build": record_polyhedron_build,
    "membership-stream": record_membership_stream,
    "algebra-evidence": record_algebra_evidence,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=sorted(RECORDERS))
    args = parser.parse_args()
    for offset, (name, recorder) in enumerate(RECORDERS.items()):
        if args.only and name not in args.only:
            continue
        print(f"{name}:", flush=True)
        dump(name, recorder(random.Random(corpus.MASTER_SEED + offset)))


if __name__ == "__main__":
    main()
