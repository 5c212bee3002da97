"""Benchmark of ybrack: H^2 classification, Yang-Baxter checks and
normalization, end to end and layer by layer.

    python3 bench/run.py --workload h2-classify --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the program is imported from src/.  One
process, one thread.  It repeats whole rounds of the workload's fixed job
list while the next round is expected to end within --seconds, checks
every output against the oracles in oracle.py, and prints one JSON object
as the last line of standard output.

Times are taken in units of a fixed reference kernel (oracle.ref_kernel)
run between jobs and, from a SIGALRM handler, inside them, in the same
process: the speed of the machine drifts by more than any usable bound
within seconds (README.md).

--trace 0 prints the end-to-end metrics:
  setup_s      median over SETUP_PROBES fresh processes of the time from
               spawn to "inputs ready" (interpreter start, import ybrack,
               building the first round's inputs), in seconds at the
               reference speed REF_NOMINAL_S;
  wall_ref     median over rounds of the round's summed job times, each
               divided by the reference kernel's mean time around and
               during the job;
  job_p50_ref  median job time in the same unit;
  peak_rss_mb  peak resident memory of this process.

--trace 1 alternates untraced and traced rounds, then runs one counting
round, and prints the per-layer metrics (see spans.py) in plain seconds
and counts; the spans are written to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import types

import oracle
import spans as tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SETUP_PROBES = 3
REF_REPS = 3
REF_EVERY = 0.25
SAMPLE_EVERY = 0.25
# the reference kernel's time on a quiet 2-CPU machine (Python 3.11);
# setup_s is expressed in seconds at this speed
REF_NOMINAL_S = 0.0125
# jobs left out of the counting round: under the profile hook
# dihedral:8 alone would take about four times its 6 s
COUNT_SKIP = {"h2 dihedral:8"}


def load_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ybrack", "__init__.py")):
        sys.stderr.write("bench: src/ybrack not found; run from the root "
                         "of a checkout of the repository\n")
        sys.exit(2)
    sys.path.insert(0, src)
    import ybrack
    from ybrack import cli, deformations, racks, truncpoly, yangbaxter
    if not os.path.abspath(ybrack.__file__).startswith(src + os.sep):
        sys.stderr.write(f"bench: imported ybrack from {ybrack.__file__}, "
                         f"not from {src}\n")
        sys.exit(2)
    return types.SimpleNamespace(cli=cli, deformations=deformations,
                                 racks=racks, truncpoly=truncpoly,
                                 yangbaxter=yangbaxter)


def round_rng(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}")


def ref_time() -> float:
    """One timed run of the reference kernel, with the collector off."""
    gc.disable()
    try:
        t = time.perf_counter()
        oracle.ref_kernel()
        return time.perf_counter() - t
    finally:
        gc.enable()


def ref_gap() -> float:
    """Median time of REF_REPS runs of the reference kernel."""
    return statistics.median(ref_time() for _ in range(REF_REPS))


class Sampler:
    """Runs the reference kernel from a SIGALRM handler every SAMPLE_EVERY
    seconds while a job runs, so a job of several seconds is compared with
    the machine's speed during it, not only at its two ends.  The time
    spent in the handler is kept apart and taken off the job's time."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(ref_time())
        self.spent += time.perf_counter() - t0

    def run(self, fn):
        """(fn(), seconds fn took without the handler's time)."""
        spent = self.spent
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            dt = time.perf_counter() - t0
        return out, dt - (self.spent - spent)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.job_refs: list[float] = []


def run_jobs(ctx, jobs, tally, recorder=None, sampler=None, with_ref=True):
    """Time each job's program call, then check its output.

    The reference kernel runs before the first job and after any job that
    ends REF_EVERY seconds of job time since its last run, and, with a
    sampler, every SAMPLE_EVERY seconds inside the jobs.  Each job is
    divided by the mean of the reference times around and during it.
    Returns (summed job time, summed job time in reference units)."""
    wall = wall_ref = 0.0
    before = ref_gap() if with_ref else 1.0
    pending: list[float] = []
    first_sample = len(sampler.samples) if sampler else 0
    for i, job in enumerate(jobs):
        tally.attempted += 1
        ctx.cold()
        if recorder is not None:
            recorder.on = True
        ok = True
        try:
            if sampler is not None:
                out, dt = sampler.run(job.call)
            else:
                t0 = time.perf_counter()
                out = job.call()
                dt = time.perf_counter() - t0
        except Exception:
            ok, dt = False, 0.0
            sys.stderr.write(f"bench: {job.kind} raised\n")
            traceback.print_exc()
        if recorder is not None:
            recorder.on = False
        wall += dt
        pending.append(dt)
        if sum(pending) >= REF_EVERY or i == len(jobs) - 1:
            after = ref_gap() if with_ref else 1.0
            during = sampler.samples[first_sample:] if sampler else []
            ref = statistics.mean([before, after] + during)
            tally.job_refs.extend(t / ref for t in pending)
            wall_ref += sum(pending) / ref
            before, pending = after, []
            first_sample = len(sampler.samples) if sampler else 0
        if not ok:
            tally.failed += 1
            continue
        try:
            job.check(out)
        except Exception as exc:
            tally.wrong.append(f"{job.kind}: {exc!r}")
    return wall, wall_ref


def setup_probe(workload, seed):
    """Build the first round's inputs in this fresh process, then report."""
    yb = load_program()
    scratch = make_scratch()
    try:
        workloads.WORKLOADS[workload](workloads.Context(yb, scratch),
                                      round_rng(workload, seed, 0))
        print("ready", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure_setup(workload, seed) -> float:
    """Median over SETUP_PROBES fresh processes of the time from spawn to
    "ready", each in seconds at the reference speed: measured seconds
    times REF_NOMINAL_S over the reference kernel's time around it."""
    times = []
    for _ in range(SETUP_PROBES):
        before = ref_gap()
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, os.path.abspath(__file__), "--setup-probe",
                 "--workload", workload, "--seed", str(seed)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        times.append(dt * REF_NOMINAL_S / ((before + ref_gap()) / 2))
    return statistics.median(times)


def make_scratch():
    path = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, ctx, make_round, tally):
    setup_s = measure_setup(args.workload, args.seed)
    jobs = make_round(ctx, round_rng(args.workload, args.seed, 0))
    refs = []
    sampler = Sampler()
    start = time.perf_counter()
    index = 0
    while True:
        if index:
            jobs = make_round(ctx, round_rng(args.workload, args.seed, index))
        refs.append(run_jobs(ctx, jobs, tally, sampler=sampler)[1])
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index > args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_ref": metric(statistics.median(refs), "ref"),
        "job_p50_ref": metric(statistics.median(tally.job_refs), "ref"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def measure_traced(args, ctx, make_round, tally):
    rec = tracing.Recorder()
    rec.install()
    plain, traced, selfs = [], [], []
    start = time.perf_counter()
    index = 0
    while True:
        jobs = make_round(ctx, round_rng(args.workload, args.seed, index))
        if index % 2:
            first = len(rec.spans)
            wall, wall_ref = run_jobs(ctx, jobs, tally, rec)
            traced.append((wall, wall_ref, rec.top_level_time(first)))
            selfs.append(rec.self_times(first))
        else:
            plain.append(run_jobs(ctx, jobs, tally))
        index += 1
        elapsed = time.perf_counter() - start
        if index >= 2 and elapsed + elapsed / index > args.seconds:
            break
    jobs = make_round(ctx, round_rng(args.workload, args.seed, index))
    jobs = [j for j in jobs if j.kind not in COUNT_SKIP]
    rec.count(lambda: run_jobs(ctx, jobs, tally, with_ref=False))

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
    with open(path, "w") as fh:
        rec.dump(fh)

    # the median traced round by wall time, for the self times
    pick = sorted(range(len(traced)), key=lambda i: traced[i][0])[
        len(traced) // 2]
    out = {f"{name}.self_s": metric(selfs[pick][i], "s")
           for i, name in enumerate(tracing.SPAN_NAMES)}
    for name in tracing.FRACTION_OPS:
        ops = rec.fraction_ops[tracing.SPAN_NAMES.index(name)]
        out[f"{name}.fraction_ops"] = metric(ops, "count")
    out["truncpoly.TruncPoly.mul.calls"] = metric(rec.mul_calls, "count")
    wall, _, layers = traced[pick]
    untraced = statistics.median(w for w, _ in plain)
    out["trace.wall_s"] = metric(wall, "s")
    out["trace.layers_s"] = metric(layers, "s")
    out["trace.bench_s"] = metric(wall - layers, "s")
    out["trace.untraced_wall_s"] = metric(untraced, "s")
    out["trace.overhead_s"] = metric(wall - untraced, "s")
    # the same difference in reference units, which the drift of the
    # machine's speed disturbs far less
    out["trace.overhead_ref"] = metric(
        statistics.median(r for _, r, _ in traced)
        - statistics.median(r for _, r in plain), "ref")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    ctx = workloads.Context(load_program(), make_scratch())
    tally = Tally()
    make_round = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            metrics = measure_traced(args, ctx, make_round, tally)
        else:
            metrics = measure(args, ctx, make_round, tally)
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)
    for line in tally.wrong:
        sys.stderr.write(f"bench: wrong output: {line}\n")
    correct = not tally.wrong
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
