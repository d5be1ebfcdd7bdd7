"""The eqsolve benchmark.

    python3 perfbench/run.py                  # every workload, full report
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With `--workload`, one workload runs in this process for about S seconds of
whole passes over its seeded instances, one question at a time (a closed
loop with one caller).  Every verdict is checked against a reference that
does not come from the code under test; a wrong or unverified verdict ends
the run with exit code 1.  `--trace 0` reports the end-to-end metrics;
`--trace 1` reports per-layer spans and exact counters (see spans.py) and
the tracing overhead.  Human-readable lines come first, then one `REPORT`
line with the full record (samples, failures, provenance), and last one
JSON line with `correct`, `attempted`, `failed` and `metrics`.

Without `--workload`, every workload runs once untraced and twice traced in
child processes, the table of all metrics is printed, and the run fails if
the two traced runs disagree on any exact counter.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("group-corpus", "group-deep", "ring-corpus", "cli")
SETUP_PROBES = 5
IMPORT_PROBES = 3
MIN_PASSES = 2
REFERENCE_S = 0.001   # calibrate() on the reference machine


def calibrate():
    """Fixed interpreter work of the kind eqsolve does: integer arithmetic,
    tuples, a dict and a sort.  About 1 ms on the machine this was built on
    when it is not slowed by its neighbours."""
    table = {}
    acc = 1
    for i in range(2000):
        acc = (acc * 31 + i) % 65521
        key = (i % 37, acc % 11)
        table[key] = table.get(key, 0) + acc
    return sorted(table.items())


def timed_calibration():
    t0 = time.perf_counter()
    calibrate()
    return time.perf_counter() - t0


def setup_probe(name, seed):
    """Seconds from starting a fresh interpreter to the end of set-up."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"),
                             name, str(seed)], cwd=ROOT, stdout=subprocess.PIPE,
                            text=True)
    with proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit("perfbench: set-up probe for %s failed" % name)
    return elapsed


def groups_import_ms():
    """Cumulative import time of eqsolve.groups (numpy is imported there)."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import eqsolve"], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True,
                          timeout=120)
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "eqsolve.groups":
            return int(fields[1]) / 1000.0
    raise SystemExit("perfbench: no eqsolve.groups line in -X importtime")


def source_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "eqsolve")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def run_passes(instances, runner, window, min_passes, tracer=None):
    """Whole passes over the instances, at least `min_passes`, then more
    while the next one fits the window.  With a tracer, passes alternate
    traced and untraced, traced first.

    Returns samples (keyed by traced or not) and one record per pass.
    Exceptions other than a wrong verdict are failures of that question,
    counted by kind; the run goes on.
    """
    import workloads

    samples = {False: workloads.Samples(), True: workloads.Samples()}
    passes = []
    calibrations = [timed_calibration(), timed_calibration()]
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 0
        sink = samples[traced]
        if traced:
            tracer.reset()
            tracer.install()
        try:
            failures, counters = [], []
            t0 = time.perf_counter()
            for key, inst in enumerate(instances):
                sink.key = key
                q0 = time.perf_counter()
                try:
                    counters.append(runner(inst, sink))
                except workloads.Mismatch:
                    raise
                except Exception as exc:  # a failed question is data
                    failures.append((inst.label, type(exc).__name__))
                    counters.append(type(exc).__name__)
                sink.add("question", time.perf_counter() - q0)
                # the machine's speed around this question: the calibrations
                # before the previous question, before it and after it
                calibrations.append(timed_calibration())
                sink.commit(REFERENCE_S / statistics.median(calibrations[-3:]))
            elapsed = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        record = {"traced": traced, "elapsed": elapsed,
                  "attempted": len(instances),
                  "completed": len(instances) - len(failures),
                  "failures": failures, "counters": counters}
        if traced:
            record.update(total=dict(tracer.total),
                          self=dict(tracer.self_time),
                          exact=tracer.exact_counters(),
                          space_log10=list(tracer.space_log10))
        # a traced run starts traced, so passes[0] holds the exact counters
        if passes and (passes[0]["counters"] != counters
                       or traced and passes[0]["exact"] != record["exact"]):
            raise workloads.Mismatch("work counters differ between passes")
        passes.append(record)
        used = time.perf_counter() - start
        if len(passes) >= min_passes and used + elapsed > window:
            samples[False].calibrations = calibrations
            return samples, passes


def verdicts_per_s(samples, passes, scaled=True):
    """Checked verdicts per second of a pass at each question's median."""
    return passes[0]["completed"] / sum(samples.typical("question", scaled))


def cli_processes(instances):
    """One `python -m eqsolve` process per question and one bare import:
    wall time as the user sees it, not scaled."""
    import cliwork
    import workloads

    samples = workloads.Samples()
    for key, inst in enumerate(instances):
        samples.key = key
        cliwork.run_subprocess(inst, samples)
        samples.commit(1.0)
    samples.key = "import"
    cliwork.time_import(samples)
    samples.commit(1.0)
    return samples


def end_to_end(name, seed, instances, runner, seconds):
    samples, passes = run_passes(instances, runner, seconds, MIN_PASSES)
    samples = samples[False]
    processes = cli_processes(instances) if name == "cli" else None
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli"
                               else resource.RUSAGE_SELF)
    peak_rss_mb = usage.ru_maxrss / 1024.0
    setups = [setup_probe(name, seed) for _ in range(SETUP_PROBES)]
    questions = passes[0]["attempted"]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "verdicts_per_s": (verdicts_per_s(samples, passes), "1/s", questions),
        "failed_frac": (len(passes[0]["failures"]) / questions, "ratio",
                        questions),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "calibrate_ms": (1000.0 * statistics.median(samples.calibrations),
                         "ms", len(samples.calibrations)),
        "wall.verdicts_per_s": (verdicts_per_s(samples, passes, False), "1/s",
                                questions),
    }
    wall = samples.typical("decide", scaled=False)
    if wall:
        metrics["wall.decide_ms_p50"] = (1000.0 * statistics.median(wall),
                                         "ms", len(wall))
    if processes is not None:
        walls = processes.typical("cli")
        metrics["cli_ms_p50"] = (1000.0 * statistics.median(walls), "ms",
                                 len(walls))
        metrics["import_ms"] = (1000.0 * processes.typical("import")[0],
                                "ms", 1)
    for op, prefix in (("decide", "decide_ms"), ("oracle", "oracle_ms"),
                       ("equiv", "equiv_ms")):
        times = samples.typical(op)
        if not times:
            continue
        metrics[prefix + "_p50"] = (1000.0 * statistics.median(times), "ms",
                                    len(times))
        if len(times) >= 100:
            metrics[prefix + "_p90"] = (1000.0 * statistics.quantiles(
                times, n=10, method="inclusive")[8], "ms", len(times))
    return metrics, passes, setups


def layer_metrics(passes, instances, traced, untraced, import_ms):
    """Per-layer metrics of the traced passes: times are mean ms per pass,
    counts are exact per pass."""
    n = len(passes)

    def total_ms(span):
        return 1000.0 * sum(p["total"].get(span, 0.0) for p in passes) / n

    def self_ms(span):
        return 1000.0 * sum(p["self"].get(span, 0.0) for p in passes) / n

    c = passes[0]["exact"]
    calls = lambda span: c.get("calls." + span, 0)  # noqa: E731
    questions = len(instances)
    equivs = sum(1 for i in instances if i.kind == "group_equiv")
    nodes = c.get("solver.nodes", 0)
    spaces = passes[0]["space_log10"]
    m = {
        "solver.solve_ms": (self_ms("solver.solve"), "ms"),
        "solver.verify_witness_ms": (total_ms("solver.verify_witness"), "ms"),
        "solver.nodes": (nodes, "count"),
        "solver.prunes": (c.get("solver.prunes", 0), "count"),
        "solver.prune_ratio": (c.get("solver.prunes", 0) / nodes
                               if nodes else 0.0, "ratio"),
        "solver.calls": (calls("solver.solve") / questions, "count"),
        "solver.space_log10": (statistics.median(spaces) if spaces else 0.0,
                               "log10"),
        "reduction.build_system_ms": (self_ms("reduction.build_system"), "ms"),
        "reduction.symbolic_product_ms": (
            total_ms("reduction.symbolic_product"), "ms"),
        "reduction.monomials": (c.get("reduction.monomials", 0), "count"),
        "reduction.slot_vars": (c.get("reduction.slot_vars", 0), "count"),
        "reduction.decide_self_ms": (self_ms("reduction.decide_equation"),
                                     "ms"),
        "reduction.builds_per_equiv": (
            c.get("reduction.equiv_builds", 0) / equivs if equivs else 0.0,
            "count"),
        "reduction.assemble_witness_ms": (
            total_ms("reduction.assemble_witness"), "ms"),
        "groups.evaluate_word_ms": (total_ms("groups.evaluate_word"), "ms"),
        "groups.brute_force_solve_ms": (total_ms("groups.brute_force_solve"),
                                        "ms"),
        "groups.words_agree_ms": (total_ms("groups.words_agree_everywhere"),
                                  "ms"),
        "groups.oracle_assignments": (c.get("groups.oracle_assignments", 0),
                                      "count"),
        "groups.import_ms": (import_ms, "ms"),
        "rings.sigma_expand_ms": (total_ms("rings.sigma_expand"), "ms"),
        "rings.entrywise_rewrite_ms": (total_ms("rings.entrywise_rewrite"),
                                       "ms"),
        "rings.build_ring_system_ms": (self_ms("rings.build_ring_system"),
                                       "ms"),
        "rings.monomials": (c.get("rings.monomials", 0), "count"),
        "rings.slot_vars": (c.get("rings.slot_vars", 0), "count"),
        "rings.enumerate_ideal_ms": (total_ms("rings.enumerate_ideal"), "ms"),
        "rings.ideal_size": (c.get("rings.ideal_size", 0) / c["rings.ideals"]
                             if c.get("rings.ideals") else 0.0, "count"),
        "rings.factor_solves": (c.get("rings.factor_solves", 0), "count"),
        "rings.oracle_ms": (total_ms("rings.brute_force_ring_solve"), "ms"),
        "rings.oracle_assignments": (c.get("rings.oracle_assignments", 0),
                                     "count"),
        "problemfile.parse_ms": (total_ms("problemfile.parse"), "ms"),
        "cli.main_self_ms": (self_ms("cli.main"), "ms"),
        "pipeline.expand_ms": (
            total_ms("reduction.symbolic_product")
            + total_ms("rings.sigma_expand")
            + total_ms("rings.entrywise_rewrite"), "ms"),
        "pipeline.build_ms": (
            self_ms("reduction.build_system")
            + self_ms("rings.build_ring_system"), "ms"),
        "pipeline.monomials": (c.get("reduction.monomials", 0)
                               + c.get("rings.monomials", 0), "count"),
        "pipeline.slot_vars": (c.get("reduction.slot_vars", 0)
                               + c.get("rings.slot_vars", 0), "count"),
        "trace.verdicts_per_s": (traced, "1/s"),
        "trace.untraced_verdicts_per_s": (untraced, "1/s"),
        "trace.overhead_verdicts_per_s": (traced - untraced, "1/s"),
        "trace.overhead_pct": (100.0 * (untraced - traced) / untraced, "%"),
    }
    return {k: (v, unit, n) for k, (v, unit) in m.items()}


def traced_run(name, instances, runner, seconds):
    import spans

    samples, passes = run_passes(instances, runner, seconds, 2,
                                 spans.Tracer())
    import_ms = statistics.median(groups_import_ms()
                                  for _ in range(IMPORT_PROBES))
    untraced = verdicts_per_s(samples[False], passes)
    traced = verdicts_per_s(samples[True], passes)
    metrics = layer_metrics([p for p in passes if p["traced"]], instances,
                            traced, untraced, import_ms)
    return metrics, passes


def run_one(args, listed):
    import workloads

    name = args.workload
    instances = workloads.setup(name, args.seed)
    if name == "cli":
        import cliwork
        runner = cliwork.run_in_process
    else:
        runner = workloads.run_instance
    record = {"workload": name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        if args.trace:
            metrics, passes = traced_run(name, instances, runner,
                                         args.seconds)
            record["exact_counters"] = passes[0]["exact"]
        else:
            metrics, passes, setups = end_to_end(name, args.seed, instances,
                                                 runner, args.seconds)
            record["setup_samples_s"] = setups
        correct = True
    except workloads.Mismatch as exc:
        record["error"] = str(exc)
        metrics, passes, correct = {}, [], False
    attempted = sum(p["attempted"] for p in passes) or len(instances)
    failed = sum(len(p["failures"]) for p in passes)
    failures = sorted({f for p in passes for f in p["failures"]})
    record.update({
        "correct": correct, "passes": len(passes),
        "attempted": attempted, "failed": failed,
        "failed_instances": [{"instance": l, "kind": k} for l, k in failures],
        "metrics": {k: {"value": v, "unit": u, "samples": n}
                    for k, (v, u, n) in metrics.items()},
        "provenance": {
            "seed": args.seed, "git_commit": git_commit(),
            "src_sha256": source_digest(),
            "python": platform.python_version(),
            "numpy": getattr(sys.modules.get("numpy"), "__version__", None),
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
        },
    })
    for key, (value, unit, n) in metrics.items():
        print("%-34s %14.6g %-6s (n=%d)" % (key, value, unit, n))
    for label, kind in failures:
        print("failed: %s (%s)" % (label, kind))
    if not correct:
        print("WRONG: %s" % record["error"])
    print("REPORT " + json.dumps(record, sort_keys=True))
    final = {k: {"value": metrics[k][0], "unit": metrics[k][1]}
             for k in listed if k in metrics}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if correct else 1


def run_all(args):
    """Every workload: one untraced run and two traced runs, then a table."""
    status = 0
    for name in WORKLOADS:
        reports = []
        for trace in (0, 1, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], cwd=ROOT, capture_output=True,
                text=True)
            report = next((json.loads(line[len("REPORT "):])
                           for line in proc.stdout.splitlines()
                           if line.startswith("REPORT ")), None)
            if proc.returncode != 0 or report is None:
                sys.stdout.write(proc.stdout + proc.stderr)
                print("%s --trace %d: FAILED (exit %d)"
                      % (name, trace, proc.returncode))
                status = 1
                break
            reports.append(report)
        if len(reports) != 3:
            continue
        print("== %s (seed %d, %d s)" % (name, args.seed, args.seconds))
        for report in reports[:2]:
            for key, metric in report["metrics"].items():
                print("  %-34s %14.6g %-6s (n=%d)"
                      % (key, metric["value"], metric["unit"],
                         metric["samples"]))
        for failure in reports[0]["failed_instances"]:
            print("  failed: %(instance)s (%(kind)s)" % failure)
        if reports[1]["exact_counters"] != reports[2]["exact_counters"]:
            print("  exact counters DIFFER between two traced runs")
            status = 1
        else:
            print("  exact counters identical across two traced runs (%d)"
                  % len(reports[1]["exact_counters"]))
        print("  provenance: %s" % json.dumps(reports[0]["provenance"]))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload is None:
        return run_all(args)
    listed = [m["name"] for m in spec["per_layer" if args.trace
                                      else "end_to_end"]]
    return run_one(args, listed)


if __name__ == "__main__":
    sys.exit(main())
