"""Run one workload in this process and print its measurements as one JSON
line on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --t0 T [--setup-only]

``run.py`` starts this once per set-up it measures, each time in a fresh
interpreter so the package's caches start cold.  ``--t0`` is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide on Linux), so ``setup_s`` covers interpreter start, imports,
corpus generation, prebuilt polyhedra and warm-up.  It is reported at
reference speed: calibration slices are timed at process start, after the
imports, through the workload's set-up loops and before the first timed job
(``speed.SetupClock``); their own time is left out.  The raw wall time is
``setup_raw_s``.

The timed phase runs whole passes over the workload's corpus, one job at a
time (a closed loop with one client), until the jobs have run for
``--seconds`` and at least two passes are done.  Every answer is checked
outside the job's timer.  Job timings are reported at reference speed:
each job's time is scaled by the calibration slices timed between the jobs
near it (``scaled_times``).

With ``--trace 1`` the timed phase runs the same passes untraced and with
``spans.Tracer`` wrappers installed (see ``traced_run``); the per-layer
numbers come from the traced passes.  The two caches the package exposes
(``check_hypothesis``, ``cyclotomic_polynomial``) are cleared before each
block so every block starts alike.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import timeit
from array import array
from fractions import Fraction

import corpus
from speed import CAL_EVERY_S, SetupClock, calibration_slice, speed_factor

# Set-up is timed at reference speed, from slices taken from here on.
SETUP_CLOCK = SetupClock()
SETUP_CLOCK.burst()

ROOT = os.path.dirname(corpus.SRC)
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, corpus.SRC)

import artin_sigma  # noqa: E402
import artin_sigma.fields as fields  # noqa: E402
import artin_sigma.fox as fox  # noqa: E402
import artin_sigma.graphs as graphs  # noqa: E402
import artin_sigma.laurent as laurent  # noqa: E402

import workloads  # noqa: E402
from workloads import JobError  # noqa: E402

CLI_COMMANDS = ("sigma1", "polyhedron", "hypothesis", "fox", "jacobian", "kt-certify", "groebner")
PROVENANCES = ("mmw_necessary", "mmw_sufficient", "theorem_a", "low_cycle_rank", "conjecture_only")
IMPORT_PROBES = 5
MIN_PASSES = 2
LOCAL_WINDOW_S = 1.0  # job time either side of a job whose slices scale it


class Phase:
    """Job times and check results of whole passes, in pass-major order
    (sample k is job ``k % len(jobs)``), and the outputs of the first pass."""

    def __init__(self, wl):
        self.wl = wl
        self.times = array("d")
        self.ok = array("b")
        self.first_outputs = []
        self.busy_s = 0.0
        self.passes = 0
        self.slices = array("d")
        self.slice_pos = array("d")  # job time before each slice

    def job_times(self):
        """(job, wall s) for every sample."""
        jobs = self.wl.jobs
        return ((jobs[k % len(jobs)], dt) for k, dt in enumerate(self.times))

    @property
    def failed(self):
        return self.ok.count(0)


def timed_phase(wl, seconds, passes=None, tracer=None, min_passes=MIN_PASSES) -> Phase:
    """Whole passes over the corpus until the jobs have run ``seconds`` and
    at least ``min_passes`` passes are done (or exactly ``passes``).

    Only the job itself is timed.  Its answer is checked right after, outside
    its timer, and the timed phase is the sum of job times; so checking
    costs no measured time and memory does not grow with the job count.
    After every ``CAL_EVERY_S`` of job time a calibration slice is timed,
    so the slices sample the machine's speed across the whole phase."""
    phase = Phase(wl)
    since_cal = CAL_EVERY_S
    while True:
        for index, job in enumerate(wl.jobs):
            t = time.perf_counter()
            try:
                out = tracer.job_span(index, wl.run, job) if tracer else wl.run(job)
            except Exception as exc:  # a failing job is counted, the run goes on
                out = JobError(f"{type(exc).__name__}: {exc}")
            dt = time.perf_counter() - t
            phase.times.append(dt)
            phase.busy_s += dt
            phase.ok.append(wl.check(job, out))
            if not phase.passes:
                phase.first_outputs.append(out)
            since_cal += dt
            if since_cal >= CAL_EVERY_S:
                since_cal = 0.0
                phase.slices.append(calibration_slice())
                phase.slice_pos.append(phase.busy_s)
        phase.passes += 1
        if passes is not None:
            if phase.passes >= passes:
                return phase
        elif phase.passes >= min_passes and phase.busy_s >= seconds:
            return phase


def scaled_times(phase):
    """Each job time at reference speed, scaled by the slices taken within
    ``LOCAL_WINDOW_S`` of job time of the job: the machine's speed drifts
    within a run, so a run-wide factor would over- or under-scale the jobs
    that ran in a slow or fast spell.  A slice is taken after the first job
    and then after every ``CAL_EVERY_S`` of job time, so every window holds
    one."""
    pos, slices = phase.slice_pos, phase.slices
    scaled = array("d")
    lo = hi = 0
    end = 0.0
    for dt in phase.times:
        start, end = end, end + dt
        while pos[lo] < start - LOCAL_WINDOW_S:
            lo += 1
        while hi < len(pos) and pos[hi] <= end + LOCAL_WINDOW_S:
            hi += 1
        scaled.append(dt * speed_factor(slices[lo:hi]))
    return scaled


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least ten of ``n`` samples beyond
    it (nearest rank).  Taken with ``n`` = two passes, it is fixed per
    workload, so on a repeated corpus it names the same job whatever the
    number of passes a run completes; every run does at least two."""
    return max(0, 100 * (n - 10) // n)


def nearest_rank(values, pct):
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)  # ceil(pct * n / 100)
    return ordered[max(rank, 1) - 1]


def kind_stats(phases):
    by_kind = {}
    for phase in phases:
        for job, dt in phase.job_times():
            by_kind.setdefault(phase.wl.kind(job), []).append(dt)
    total = sum(sum(v) for v in by_kind.values())
    return {
        k: {"n": len(v), "p50_ms": statistics.median(v) * 1e3, "time_share": sum(v) / total}
        for k, v in sorted(by_kind.items())
    }


def end_to_end(wl, phase, extra_attempted, extra_failed, setup_s):
    """The end-to-end metrics; job timings at reference speed."""
    n_jobs = len(wl.jobs)
    pct = tail_percentile(MIN_PASSES * n_jobs)
    times = scaled_times(phase)
    samples = len(phase.times)
    attempted = samples + extra_attempted
    failed = phase.failed + extra_failed
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if wl.name == "cli-mix" else resource.RUSAGE_SELF
    )
    raw = {
        "jobs_per_s": (samples - phase.failed) / phase.busy_s,
        "job_p50_ms": statistics.median(phase.times) * 1e3,
        "job_tail_ms": nearest_rank(phase.times, pct) * 1e3,
    }
    metrics = {
        "jobs_per_s": ((samples - phase.failed) / sum(times), "1/s"),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "job_tail_ms": (nearest_rank(times, pct) * 1e3, "ms"),
        "correct_ratio": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024, "MB"),
    }
    details = {
        "jobs": n_jobs,
        "samples": samples,
        "passes": phase.passes,
        "tail_percentile": pct,
        "timed_s": phase.busy_s,
        "speed_factor": sum(times) / phase.busy_s,
        "calibration_slices": len(phase.slices),
        "raw": raw,
        "failed_jobs": phase.failed,
        "extra_checks": extra_attempted,
        "failed_extra_checks": extra_failed,
        "kinds": kind_stats([phase]),
    }
    return metrics, attempted, failed, details


# ---------------------------------------------------------------------------
# traced run


def import_probes():
    """Bare interpreter start versus ``import artin_sigma``, in fresh
    processes, alternating; medians in ms, and whether networkx loaded."""
    env = corpus.child_env()

    def wall(code):
        t = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             stdout=subprocess.PIPE, timeout=60)
        return time.perf_counter() - t, out.stdout

    bare, package = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(wall("pass")[0])
        package.append(wall("import artin_sigma")[0])
    _, flag = wall("import sys, artin_sigma; print(int('networkx' in sys.modules))")
    python_ms = statistics.median(bare) * 1e3
    return python_ms, statistics.median(package) * 1e3 - python_ms, int(flag.strip() or 0)


def per_call_us(fn, number):
    """Median over five repeats of the mean time of one call, in us."""
    runs = timeit.repeat(fn, number=number, repeat=5)
    return statistics.median(runs) / number * 1e6


def micro_benchmarks():
    """Fixed operands for the arithmetic layers and the Fox Jacobian."""
    q_vars = ("x", "y", "z", "w")
    f = laurent.parse_poly("(1+x+y+z+w)^3", q_vars)
    g = laurent.parse_poly("(1-x*y+2*z*w)^2", q_vars)
    field = fields.CyclotomicField(12)
    a = field.element([Fraction(1, 2), Fraction(-3), Fraction(2, 3), Fraction(5)])
    b = field.element([Fraction(-7), Fraction(1, 5), Fraction(4), Fraction(-1, 3)])
    lin = laurent.LaurentPoly(("x",), {(1,): a, (0,): field.one}, field)
    inv = laurent.LaurentPoly(("x",), {(-1,): field.one, (0,): -b}, field)
    p, q = lin ** 4, inv ** 3
    fixtures = [workloads.parse_graph(t) for t in corpus.FIXTURES]

    def jacobians():
        for graph in fixtures:
            gens, relators = fox.graph_presentation(graph)
            fox.jacobian(gens, relators, fox.abelianization_map(graph))

    return {
        "laurent.mul_us.q_4var": (per_call_us(lambda: f * g, 20), "us"),
        "laurent.mul_us.cyclo_1var": (per_call_us(lambda: p * q, 20), "us"),
        "fields.cyclonum_mul_us": (per_call_us(lambda: a * b, 500), "us"),
        "fields.cyclonum_inverse_us": (per_call_us(a.inverse, 100), "us"),
        "fox.jacobian_ms": (per_call_us(jacobians, 5) / 1e3 / len(fixtures), "ms"),
    }


def cache_counts():
    return graphs.check_hypothesis.cache_info(), fields.cyclotomic_polynomial.cache_info()


def clear_caches():
    graphs.check_hypothesis.cache_clear()
    fields.cyclotomic_polynomial.cache_clear()


def hit_ratio(hits, misses):
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(wl, summary, passes, phases, caches, probes, micro, overhead):
    """Every per-layer metric; 0 for a layer this workload does not run.
    ``passes`` is the number of traced passes ``summary`` covers."""

    def row(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                  "size_sum": 0, "size_max": 0})

    def mean_self(name, scale):
        r = row(name)
        return r["self_s"] / r["calls"] * scale if r["calls"] else 0.0

    def per_pass(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    one_pass = [(job, out) for job, out in zip(wl.jobs, phases[0].first_outputs)
                if not isinstance(out, JobError)]
    m = {}
    python_ms, package_ms, networkx = probes
    m["import.python_ms"] = (python_ms, "ms")
    m["import.package_ms"] = (package_ms, "ms")
    m["import.networkx_loaded"] = (networkx, "flag")

    cli_walls = {c: [] for c in CLI_COMMANDS}
    body_ms = wall_ms = 0.0
    if wl.name == "cli-mix":
        for phase in phases:
            for job, dt in phase.job_times():
                cli_walls[job["kind"]].append(dt * 1e3)
        for out, dt in zip(phases[0].first_outputs, phases[0].times):
            report = None if isinstance(out, JobError) else wl.report(out)
            if report is not None:
                body_ms += report["timing_ms"]
                wall_ms += dt * 1e3
    for c in CLI_COMMANDS:
        m[f"cli.{c}.p50_ms"] = (statistics.median(cli_walls[c]) if cli_walls[c] else 0.0, "ms")
    m["cli.in_body_share"] = (ratio(body_ms, wall_ms), "ratio")

    candidates = row("polyhedron.dominance_pieces")["size_sum"] + row(
        "polyhedron.disconnection_pieces")["size_sum"]
    kept = row("polyhedron.complement_polyhedron")["size_sum"]
    m["polyhedron.complement_polyhedron_s"] = (per_pass(row("polyhedron.complement_polyhedron")["self_s"]), "s/pass")
    m["polyhedron.dominance_pieces_s"] = (per_pass(row("polyhedron.dominance_pieces")["self_s"]), "s/pass")
    m["polyhedron.disconnection_pieces_s"] = (per_pass(row("polyhedron.disconnection_pieces")["self_s"]), "s/pass")
    m["polyhedron.subsphere_contained_calls"] = (per_pass(row("polyhedron.subsphere_contained")["calls"]), "1/pass")
    m["polyhedron.subsphere_contained_s"] = (per_pass(row("polyhedron.subsphere_contained")["self_s"]), "s/pass")
    m["polyhedron.candidates"] = (per_pass(candidates), "1/pass")
    m["polyhedron.pieces_kept"] = (per_pass(kept), "1/pass")
    m["polyhedron.kept_ratio"] = (ratio(kept, candidates), "ratio")

    m["graphs.is_connected_calls"] = (per_pass(row("graphs.is_connected")["calls"]), "1/pass")
    m["graphs.full_subgraph_calls"] = (per_pass(row("graphs.full_subgraph")["calls"]), "1/pass")
    m["graphs.is_dominant_us"] = (mean_self("graphs.is_dominant", 1e6), "us")
    m["graphs.cycle_rank_us"] = (mean_self("graphs.cycle_rank", 1e6), "us")
    m["graphs.check_hypothesis_us"] = (mean_self("graphs.check_hypothesis", 1e6), "us")
    m["graphs.check_hypothesis_hit_ratio"] = (hit_ratio(*caches["check_hypothesis"]), "ratio")

    m["characters.lf_subgraph_us"] = (mean_self("characters.lf_subgraph", 1e6), "us")
    m["characters.living_subgraph_us"] = (mean_self("characters.living_subgraph", 1e6), "us")

    m["decision.decide_sigma1_us"] = (mean_self("decision.decide_sigma1", 1e6), "us")
    verdicts = [out for _, out in one_pass if wl.name == "membership-stream"]
    for prov in PROVENANCES:
        m[f"decision.provenance.{prov}"] = (sum(1 for v in verdicts if v[1] == prov), "1/pass")

    m["polyhedron.polyhedron_contains_us"] = (mean_self("polyhedron.polyhedron_contains", 1e6), "us")
    built = row("polyhedron.complement_polyhedron")
    if built["calls"]:
        pieces = built["size_sum"] / built["calls"]
    elif wl.name == "membership-stream":
        pieces = statistics.mean(len(poly.pieces) for _, poly, _ in wl.graphs)
    else:
        pieces = 0.0
    m["polyhedron.pieces_per_graph"] = (pieces, "count")

    certs = row("presentations.certify_not_finitely_generated")
    m["presentations.forest_presentation_ms"] = (mean_self("presentations.forest_presentation", 1e3), "ms")
    m["presentations.specialize_ms"] = (mean_self("presentations.specialize", 1e3), "ms")
    m["presentations.specialization_data_calls"] = (
        ratio(row("presentations.specialization_data")["calls"], certs["calls"]), "1/cert")
    m["presentations.certified_ratio"] = (ratio(certs["size_sum"], certs["calls"]), "ratio")

    rank = row("linalg.matrix_rank")
    m["linalg.matrix_rank_s"] = (per_pass(rank["self_s"]), "s/pass")
    m["linalg.matrix_rank_calls"] = (per_pass(rank["calls"]), "1/pass")
    m["linalg.entries"] = (per_pass(rank["size_sum"]), "1/pass")

    buch = row("groebner.buchberger")
    m["groebner.buchberger_s"] = (per_pass(buch["self_s"]), "s/pass")
    m["groebner.reduce_poly_s"] = (per_pass(row("groebner.reduce_poly")["self_s"]), "s/pass")
    m["groebner.buchberger_calls"] = (per_pass(buch["calls"]), "1/pass")
    m["groebner.s_polynomial_calls"] = (per_pass(row("groebner.s_polynomial")["calls"]), "1/pass")
    m["groebner.reduce_poly_calls"] = (per_pass(row("groebner.reduce_poly")["calls"]), "1/pass")
    m["groebner.basis_len_max"] = (buch["size_max"], "count")
    systems = [out for job, out in one_pass
               if wl.name == "algebra-evidence" and job["kind"] == "groebner"]
    m["groebner.unit_ratio"] = (ratio(sum(1 for s in systems if s["unit"]), len(systems)), "ratio")

    m.update(micro)
    m["fields.cyclotomic_polynomial_hit_ratio"] = (hit_ratio(*caches["cyclotomic_polynomial"]), "ratio")
    m["trace.overhead_ratio"] = (overhead, "ratio")
    return m


def traced_run(wl, seconds, seed):
    """Untraced and traced blocks of the same passes in the order U T T U,
    each starting from cleared caches, so drift and warm-up cancel in the
    overhead ratio.  A block is as many passes as fit in a quarter of
    ``seconds``, at least one."""
    from spans import Tracer

    tracer = Tracer()
    blocks = {False: [], True: []}
    caches = {"check_hypothesis": [0, 0], "cyclotomic_polynomial": [0, 0]}
    passes = None
    for traced in (False, True, True, False):
        clear_caches()
        if traced:
            tracer.install()
        try:
            phase = timed_phase(wl, seconds / 4, passes=passes, min_passes=1,
                                tracer=tracer if traced else None)
        finally:
            tracer.uninstall()
        passes = phase.passes
        if traced:
            for name, info in zip(caches, cache_counts()):
                caches[name][0] += info.hits
                caches[name][1] += info.misses
        blocks[traced].append(phase)
    phases = blocks[False] + blocks[True]
    plain_s = sum(p.busy_s for p in blocks[False])
    traced_s = sum(p.busy_s for p in blocks[True])
    # each side's time at reference speed, so a slow spell on one side
    # does not pass for tracing overhead
    plain_f, traced_f = (speed_factor([x for p in blocks[side] for x in p.slices])
                         for side in (False, True))
    extra_attempted, extra_failed = wl.extra_checks()
    summary = tracer.summary()
    metrics = layer_metrics(wl, summary, 2 * passes, phases, caches, import_probes(),
                            micro_benchmarks(), (traced_s * traced_f) / (plain_s * plain_f))
    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.jsonl.gz")
    n_spans = tracer.write(spans_path)
    details = {
        "passes_per_block": passes,
        "speed_factor": {"untraced": plain_f, "traced": traced_f},
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "spans": n_spans,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "functions": summary,
        "kinds": kind_stats(phases),
    }
    samples = sum(len(p.times) for p in phases)
    attempted = samples + extra_attempted
    failed = sum(p.failed for p in phases) + extra_failed
    return metrics, attempted, failed, details


# ---------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description="one workload, one process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not os.path.abspath(artin_sigma.__file__).startswith(corpus.SRC + os.sep):
        raise SystemExit(f"imported artin_sigma from {artin_sigma.__file__}, not from {corpus.SRC}")
    SETUP_CLOCK.burst()
    wl = workloads.WORKLOADS[args.workload](args.seed, SETUP_CLOCK.tick)
    SETUP_CLOCK.burst()
    setup_raw_s = time.monotonic() - args.t0
    setup = {"setup_s": SETUP_CLOCK.scaled(setup_raw_s), "setup_raw_s": setup_raw_s,
             "setup_speed_factor": speed_factor(SETUP_CLOCK.slices),
             "setup_slices": len(SETUP_CLOCK.slices)}
    if args.setup_only:
        print(json.dumps(setup))
        return
    if args.trace:
        metrics, attempted, failed, details = traced_run(wl, args.seconds, args.seed)
    else:
        phase = timed_phase(wl, args.seconds)
        metrics, attempted, failed, details = end_to_end(wl, phase, *wl.extra_checks(),
                                                         setup["setup_s"])
    details["setup"] = setup
    print(json.dumps({"metrics": metrics, "attempted": attempted, "failed": failed,
                      "details": details}))


if __name__ == "__main__":
    main()
