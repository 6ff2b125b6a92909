"""Benchmark for seamcheck: time-to-verdict and throughput, end to end and by layer.

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Runs one workload (see `workloads.py`) in this process on one thread, from
the root of a source checkout: it imports `seamcheck` from `src/` and reads
`corpus/`. One verdict is one scenario under one model, timed from its text
in memory to its JSON report bytes, the way `seamcheck --format json` builds
it. Every verdict is checked against the outcome the scenario was built to
reach; each mismatch or exception counts as a failed run.

Times are CPU time of this thread (set-up: of the process since it started).
A verdict does no I/O and never waits, so on an idle machine its CPU time is
its wall time; on a shared machine wall time also counts the time other
tenants hold the CPU. Even CPU time is not steady on a host whose other
tenants share its cores and caches: it switches between a fast and a slow
speed, about 1.9 times apart, for seconds to minutes at a time. In 80
stretches of 25 s recorded over 33 minutes on a 2-vCPU VM, the slow speed's
share ran from 8% to all of a stretch, and 11 stretches had no fast speed at
all. A run's median or fastest verdict jumps between the two speeds with
that share; a high percentile sits at the slow speed, which is itself
steady. So:

- each case's time under a model is its 90th-percentile verdict of the run;
  `*_verdict_ms_p50` is the median of those over the cases, and `runs_per_s`
  is the rate of one pass made of them;
- `*_verdict_ms_tail` is taken over every verdict of the run; the samples
  beyond it are the costliest cases' verdicts at the slow speed.

The work is the same in every pass, so every figure describes the same work
at the same host speed.

Set-up (import, scenario generation, one untimed warm-up pass) is timed in
this process and in four fresh ones started with `--setup-only`, spread over
the run so that one burst of other load cannot hit them all; `setup_s` is
the median. Whole passes repeat for `--seconds` of wall time in between, and
each must give the same report digest and byte count as the warm-up.

With `--trace 0` the last line of output holds the end-to-end metrics; with
`--trace 1` untraced and traced passes alternate, and it holds the
per-layer metrics from `layers.py` plus the tracing overhead. The line before
it records the environment and details: tail percentile and sample count,
mismatch counts, report digest and workload sizes.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FRESH_SETUPS = 4  # set-ups timed in fresh processes, besides this one
CLOCK = time.thread_time


class Pass:
    """What one pass over a workload's cases produced."""

    def __init__(self) -> None:
        self.ms = {"tb": {}, "sb": {}, "diff": {}}  # case index -> verdict time
        self.runs = 0
        self.mismatches = 0
        self.errors = 0
        self.bytes = 0
        self.digest = hashlib.sha256()
        self.cpu_s = 0.0  # summed over the timed runs only
        self.traceback = None  # of the first run that raised


def run_pass(sc, cases: list, seed: int) -> Pass:
    """Every case under tb and sb, plus a `--diff` report where the case asks for one.

    Each run starts from a collected heap, as in a fresh `seamcheck` process;
    collections the run itself triggers are timed.
    """
    result = Pass()
    for i, case in enumerate(cases):
        for model in (("tb", "sb", "diff") if case.diff else ("tb", "sb")):
            runs = 2 if model == "diff" else 1
            result.runs += runs
            gc.collect()
            try:
                t0 = CLOCK()
                program = sc.parser.parse_text(case.text, case.name)
                if model == "diff":
                    config = sc.MachineConfig(model="tb", seed=seed)
                    outcome = sc.runner.run_differential(program, config)
                    report = sc.runner.differential_report(program, config, outcome)
                else:
                    config = sc.MachineConfig(model=model, seed=seed)
                    outcome = sc.runner.run_program(program, config)
                    report = sc.runner.single_report(program, config, outcome)
                data = sc.diagnostics.json_dumps(report).encode()
                dt = CLOCK() - t0
            except Exception:
                result.errors += runs
                result.traceback = result.traceback or traceback.format_exc()
                continue
            result.cpu_s += dt
            result.ms[model][i] = dt * 1000.0
            result.bytes += len(data)
            result.digest.update(data)
            tag = sc.runner.outcome_tag
            if model == "diff":
                agree = outcome.verdict == case.verdict
                result.mismatches += not (agree and tag(outcome.tb).value == case.tb)
                result.mismatches += not (agree and tag(outcome.sb).value == case.sb)
            else:
                result.mismatches += tag(outcome).value != getattr(case, model)
    return result


def tail(samples: list) -> tuple:
    """(value, percentile, n): the highest percentile with ten samples beyond it, at most p99.

    Past p99 a run's tail is the noise of a handful of samples, not the
    workload. With ten samples or fewer the median stands in.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return statistics.median(xs), 50.0, n
    beyond = max(10, n // 100)
    return xs[n - beyond - 1], 100.0 * (n - beyond) / n, n


def git_commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(args, cases: list, loadavg: list) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": loadavg,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cases": [c.name for c in cases],
    }


class Api:
    """The seamcheck modules, looked up by attribute so a tracer can wrap them."""

    def __init__(self) -> None:
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from seamcheck import diagnostics, parser, runner
        from seamcheck.machine import MachineConfig

        self.parser, self.runner, self.diagnostics = parser, runner, diagnostics
        self.MachineConfig = MachineConfig


def setup(args) -> tuple:
    """Import, generate, warm up. Returns (api, cases, warm-up pass)."""
    sc = Api()
    cases = workloads.build(args.workload, args.seed, os.path.join(ROOT, "corpus"), args.scale)
    warm = run_pass(sc, cases, args.seed)
    gc.collect()
    gc.freeze()  # set-up objects stay out of every later collection
    return sc, cases, warm


def setup_in_fresh_process(args) -> float:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed), "--scale", str(args.scale),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def timed_passes(sc, cases: list, seed: int, seconds: float) -> list:
    passes = []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        passes.append(run_pass(sc, cases, seed))
    return passes


def case_times(passes: list, model: str) -> dict:
    """Case index -> its 90th-percentile verdict time under `model` (or `diff`)."""
    by_case = {}
    for p in passes:
        for i, ms in p.ms[model].items():
            by_case.setdefault(i, []).append(ms)
    return {i: sorted(xs)[int(0.9 * (len(xs) - 1))] for i, xs in by_case.items()}


def end_to_end(args, sc, cases, warm, setup_s: float) -> tuple:
    setups, passes = [setup_s], []
    for _ in range(FRESH_SETUPS):
        passes += timed_passes(sc, cases, args.seed, args.seconds / FRESH_SETUPS)
        setups.append(setup_in_fresh_process(args))
    metrics, details = {}, {"setup_samples_s": setups, "passes": len(passes)}
    times = {model: case_times(passes, model) for model in ("tb", "sb", "diff")}
    for model in ("tb", "sb"):
        value, pct, n = tail([ms for p in passes for ms in p.ms[model].values()])
        metrics[f"{model}_verdict_ms_p50"] = (statistics.median(times[model].values()), "ms")
        metrics[f"{model}_verdict_ms_tail"] = (value, "ms")
        details[f"{model}_verdict_ms_tail"] = {"percentile": round(pct, 2), "samples": n}
    pass_s = sum(ms for by_case in times.values() for ms in by_case.values()) / 1000
    metrics["runs_per_s"] = (warm.runs / pass_s, "1/s")
    metrics["report_bytes"] = (warm.bytes, "bytes")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["setup_s"] = (statistics.median(setups), "s")
    return passes, metrics, details


def per_layer(args, sc, cases) -> tuple:
    """Untraced and traced passes alternate, so both sides see the same machine.

    The overhead is the median ratio of each traced pass to the untraced pass
    just before it.
    """
    import layers

    tracer = layers.Tracer(CLOCK)
    plain, traced = [], []
    t_end = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < t_end:
        plain.append(run_pass(sc, cases, args.seed))
        tracer.install()
        try:
            traced.append(run_pass(sc, cases, args.seed))
        finally:
            tracer.uninstall()
    k = len(traced)
    metrics = {name: (tracer.times[name] / k, "s") for name in layers.TIME_METRICS}
    metrics.update({name: (tracer.counts[name] / k, "count") for name in layers.COUNT_METRICS})
    traced_s = statistics.fmean(p.cpu_s for p in traced)
    untraced_s = statistics.fmean(p.cpu_s for p in plain)
    in_layers = sum(tracer.times[name] for name in layers.TIME_METRICS) / k
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    pairs = [t.cpu_s / u.cpu_s for u, t in zip(plain, traced)]
    metrics["trace.overhead"] = (statistics.median(pairs), "ratio")
    metrics["trace.harness_s"] = (traced_s - in_layers, "s")
    details = {
        "passes": {"untraced": len(plain), "traced": k},
        "layers_share_of_traced_s": in_layers / traced_s,
    }
    return plain + traced, metrics, details


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0, help="shrink generated sizes (smoke test)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    loadavg = list(os.getloadavg())

    try:
        sc, cases, warm = setup(args)
    except (ImportError, OSError) as e:
        print(f"bench: cannot set up from {ROOT}: {e}", file=sys.stderr)
        return 2
    setup_s = time.process_time()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        passes, metrics, details = per_layer(args, sc, cases)
    else:
        passes, metrics, details = end_to_end(args, sc, cases, warm, setup_s)

    everything = [warm] + passes
    deterministic = len({(p.digest.hexdigest(), p.bytes) for p in everything}) == 1
    attempted = sum(p.runs for p in everything)
    mismatches = sum(p.mismatches for p in everything)
    raised = sum(p.errors for p in everything)
    failed = mismatches + raised
    details.update(
        report_digest=warm.digest.hexdigest(),
        deterministic=deterministic,
        mismatch_rate=failed / attempted,
        mismatches=mismatches,
        exceptions=raised,
    )
    for p in everything:
        if p.traceback:
            print(p.traceback, file=sys.stderr)
            break
    print(json.dumps({"env": environment(args, cases, loadavg), "details": details}))
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
