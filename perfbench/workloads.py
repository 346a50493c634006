"""The four workloads: set-up, one job, and the answer check for each.

Library calls go through the package's submodules by attribute at call
time (``polyhedron.complement_polyhedron(...)``), so a traced run's
wrappers, installed on those module globals, see them; an untraced run
calls the unmodified functions.

Every workload exposes the same small interface to ``worker.py``:

* ``__init__(seed, tick)``: set-up; ``tick()`` is called in its loops so
  the worker can sample the machine's speed through set-up;
* ``jobs``: the corpus, one pass, in the order the timed phase runs it;
* ``run(job)``: do one job and return its raw output;
* ``check(job, output)``: compare the output with the recorded answer;
* ``kind(job)``: a label for per-kind statistics;
* ``extra_checks()``: checks that are not per job, as (attempted, failed).
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction

import artin_sigma.characters as characters
import artin_sigma.decision as decision
import artin_sigma.graphs as graphs
import artin_sigma.groebner as groebner
import artin_sigma.laurent as laurent
import artin_sigma.polyhedron as polyhedron
import artin_sigma.presentations as presentations

import corpus

MOD_P_PRIMES = (2, 3, 5, 7, 11)

# The CLI entry point exactly as the console script runs it.
CLI_BOOTSTRAP = "from artin_sigma.cli import main_entry; main_entry()"
CLI_TIMEOUT_S = 120

class JobError:
    """Output of a job that raised or timed out."""

    def __init__(self, message: str):
        self.message = message

    def __repr__(self):
        return f"JobError({self.message!r})"


def subset_matches(recorded, actual) -> bool:
    """True when every recorded field is present in ``actual`` with the same
    value; fields that only ``actual`` has are ignored at every depth."""
    if isinstance(recorded, dict):
        return isinstance(actual, dict) and all(
            k in actual and subset_matches(v, actual[k]) for k, v in recorded.items()
        )
    return recorded == actual


def polyhedron_digest(poly) -> str:
    """SHA-256 over the recorded fields of ``to_json_dict()``: each piece's
    forms and its origin's kind, zero set and cut edges."""
    pieces = []
    for piece in poly.to_json_dict()["pieces"]:
        origin = piece["origin"]
        pieces.append({
            "forms": piece["forms"],
            "origin": {k: origin[k] for k in ("kind", "zero_set", "cut_edges") if k in origin},
        })
    blob = json.dumps(pieces, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def parse_graph(text: str):
    return graphs.parse_artin(text)[0]


def verdict_record(poly, chi) -> tuple:
    """One membership job: the verdict and the polyhedron's answer."""
    verdict = decision.decide_sigma1(chi)
    return verdict.status, verdict.provenance, polyhedron.polyhedron_contains(poly, chi)


def laurent_job(gens) -> dict:
    """The unit-ideal test as ``artin-sigma groebner --laurent`` runs it."""
    unit, basis, _aux = groebner.laurent_unit_ideal(gens)
    mod_p = []
    for p in MOD_P_PRIMES:
        try:
            mod_p.append(groebner.unit_ideal_mod_p(gens, p, laurent=True))
        except (ArithmeticError, ZeroDivisionError):
            mod_p.append(None)
    return {"unit": unit, "basis": [b.to_string() for b in basis], "mod_p": mod_p}


def certificate_job(forest, values) -> dict:
    cert = presentations.certify_not_finitely_generated(forest, values)
    return {"rank": cert.rank, "generators": cert.generators, "conclusion": cert.conclusion}


def make_forest(item):
    return presentations.BipartiteForest(
        tuple(item["left"]), tuple(item["right"]), tuple(tuple(e) for e in item["edges"])
    )


def parse_system(item):
    variables = tuple(item["vars"])
    return [laurent.parse_poly(g, variables) for g in item["gens"]]


def run_cli(argv, stdin_text):
    """One CLI process; returns (exit code, stdout text)."""
    proc = subprocess.run(
        [sys.executable, "-c", CLI_BOOTSTRAP, *argv],
        input=(stdin_text or "").encode(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=corpus.child_env(),
        timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout.decode()


# ---------------------------------------------------------------------------


class CliMix:
    """A fixed cycle of CLI processes over all seven subcommands.

    The same six jobs per subcommand every run, in seeded order: a seeded
    choice moved ``job_tail_ms`` from seed to seed, because the tail sample
    falls where the slower ``groebner`` processes meet the rest."""

    name = "cli-mix"
    PER_COMMAND = 6

    def __init__(self, seed: int, tick=lambda: None):
        pool = corpus.load_pool("cli-mix")
        choice = random.Random(corpus.MASTER_SEED)
        self.jobs = []
        for command in pool["commands"]:
            self.jobs += choice.sample(pool["jobs"][command], self.PER_COMMAND)
        random.Random(seed).shuffle(self.jobs)
        run_cli(self.jobs[0]["argv"], self.jobs[0]["stdin"])  # warms the file cache

    def run(self, job):
        return run_cli(job["argv"], job["stdin"])

    @staticmethod
    def report(output):
        code, stdout = output
        try:
            return json.loads(stdout) if code == 0 else None
        except ValueError:
            return None

    def check(self, job, output):
        if isinstance(output, JobError):
            return False
        code, _ = output
        expected = job["expected"]
        if code != expected["exit"]:
            return False
        report = self.report(output)
        return report is not None and report.get("command") == job["kind"] and subset_matches(
            expected["result"], report.get("result")
        )

    def kind(self, job):
        return job["kind"]

    def extra_checks(self):
        return 0, 0


class PolyhedronBuild:
    """complement_polyhedron over a fixed corpus in seeded order."""

    name = "polyhedron-build"
    SAMPLED_CHARACTERS = 20

    def __init__(self, seed: int, tick=lambda: None):
        pool = corpus.load_pool("polyhedron-build")
        rng = random.Random(seed)
        self.jobs = [dict(item, graph=parse_graph(item["text"])) for item in pool["graphs"]]
        rng.shuffle(self.jobs)
        self.check_rng = random.Random(seed * 7919 + 1)
        self.last_output = {}
        polyhedron.complement_polyhedron(parse_graph(corpus.graph_text(*corpus.cycle_graph(4, 4))))

    def run(self, job):
        poly = polyhedron.complement_polyhedron(job["graph"])
        self.last_output[job["id"]] = poly
        return poly

    def check(self, job, output):
        return not isinstance(output, JobError) and polyhedron_digest(output) == job["digest"]

    def kind(self, job):
        return job["group"]

    def extra_checks(self):
        """Sampled characters: the polyhedron contains exactly the characters
        the decision cascade does not put in Sigma^1."""
        attempted = failed = 0
        for job in self.jobs:
            poly = self.last_output.get(job["id"])
            if poly is None:
                continue
            graph = job["graph"]
            for _ in range(self.SAMPLED_CHARACTERS):
                values = corpus.random_character(self.check_rng, graph.vertices, graph.edges)
                chi = characters.character(graph, values)
                status, _, member = verdict_record(poly, chi)
                attempted += 1
                failed += member != (status != decision.STATUS_IN)
        return attempted, failed


class MembershipStream:
    """Many cheap membership reads against polyhedra built in set-up."""

    name = "membership-stream"

    def __init__(self, seed: int, tick=lambda: None):
        pool = corpus.load_pool("membership-stream")
        rng = random.Random(seed)
        self.graphs = []
        jobs = []
        for item in pool["graphs"]:
            graph = parse_graph(item["text"])
            poly = polyhedron.complement_polyhedron(graph)
            tick()
            self.graphs.append((graph, poly, item["digest"]))
            chars = item["characters"]
            for values, status, provenance in rng.sample(chars, -(-len(chars) * 3 // 4)):
                chi = characters.character(graph, dict(zip(graph.vertices, map(Fraction, values))))
                jobs.append({"poly": poly, "chi": chi, "status": status,
                             "provenance": provenance, "even": item["even"]})
        rng.shuffle(jobs)
        self.jobs = jobs
        for job in jobs:  # one pass fills the caches and each character's values
            self.run(job)
            tick()

    def run(self, job):
        return verdict_record(job["poly"], job["chi"])

    def check(self, job, output):
        if isinstance(output, JobError):
            return False
        status, provenance, member = output
        return (
            status == job["status"]
            and provenance == job["provenance"]
            and member == (status != decision.STATUS_IN)
        )

    def kind(self, job):
        return "even" if job["even"] else "mixed"

    def extra_checks(self):
        """The prebuilt polyhedra against their recorded digests."""
        failed = sum(polyhedron_digest(poly) != digest for _, poly, digest in self.graphs)
        return len(self.graphs), failed


class AlgebraEvidence:
    """Alternating rank certificates and Laurent unit-ideal tests."""

    name = "algebra-evidence"

    def __init__(self, seed: int, tick=lambda: None):
        pool = corpus.load_pool("algebra-evidence")
        rng = random.Random(seed)
        certs = [dict(item, kind="certificate", forest=make_forest(item))
                 for item in pool["certificates"]]
        systems = [dict(item, kind="groebner", system=parse_system(item))
                   for item in pool["systems"]]
        self.jobs = corpus.interleave(rng, certs, systems)
        warm_forest = presentations.BipartiteForest(("a",), ("b",), (("a", "b", 4),))
        certificate_job(warm_forest, {"a": 1, "b": -1})
        laurent_job(parse_system({"vars": ["x", "y"], "gens": ["1+x*y", "1-x*y"]}))

    def run(self, job):
        if job["kind"] == "certificate":
            return certificate_job(job["forest"], job["values"])
        return laurent_job(job["system"])

    def check(self, job, output):
        return not isinstance(output, JobError) and subset_matches(job["expected"], output)

    def kind(self, job):
        return job["kind"]

    def extra_checks(self):
        return 0, 0


WORKLOADS = {w.name: w for w in (CliMix, PolyhedronBuild, MembershipStream, AlgebraEvidence)}
