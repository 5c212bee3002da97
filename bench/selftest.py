"""Self-test of the benchmark's checks and counters.

    python3 bench/selftest.py

1. For each workload, real outputs of the program pass their checks, and
   planted wrong outputs are rejected.
2. Two counting runs with the same seed give identical counts.
3. Without the program's source beside it the benchmark exits non-zero
   and prints no result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import types

import oracle
import run
import workloads


def must_reject(check, output, what):
    try:
        check(output)
    except oracle.CheckError:
        print(f"  rejected: {what}")
        return
    raise SystemExit(f"selftest: planted wrong output passed: {what}")


def fake_mat(data):
    """An object that serialises like a PolyMat."""
    return types.SimpleNamespace(to_json=lambda: data)


def perturb(data, k=1):
    """The same matrix JSON with one h^k coefficient changed by 1."""
    data = copy.deepcopy(data)
    r, c, coeffs = next(e for e in data["entries"] if len(e[2]) > k)
    coeffs[k] = str(oracle.Fraction(coeffs[k]) + 1)
    return data


def jobs_by_kind(ctx, workload, seed=1):
    jobs = workloads.WORKLOADS[workload](ctx, run.round_rng(workload, seed, 0))
    return {j.kind: j for j in jobs}


def planted(ctx):
    print("h2-classify")
    jobs = jobs_by_kind(ctx, "h2-classify")
    for kind in ("h2 dihedral:3", "h2 alexander:5", "h2 trivial:5"):
        job = jobs[kind]
        code, out = job.call()
        job.check((code, out))
        rep = json.loads(out)
        must_reject(job.check, (1, out), f"{kind} exit code 1")
        for key, delta in (("dimH2", 1), ("dimE2", 1), ("dimZ2", 1),
                           ("dimC2", -1)):
            bad = dict(rep, **{key: rep[key] + delta})
            must_reject(job.check, (0, json.dumps(bad)), f"{kind} {key}+{delta}")
        bad = dict(rep, verified=False)
        must_reject(job.check, (0, json.dumps(bad)), f"{kind} verified false")

    print("ybe-check")
    jobs = jobs_by_kind(ctx, "ybe-check")
    for name in ("square-reflection", "alexander:7"):
        ok_job, bad_job = jobs[f"ybe pass2 {name}"], jobs[f"ybe fail2 {name}"]
        ok_job.check(ok_job.call())
        verdict = bad_job.call()
        bad_job.check(verdict)
        x, y, z = verdict.witness
        must_reject(ok_job.check, types.SimpleNamespace(ok=False, witness=(0, 0, 0)),
                    f"pass2 {name} reported failing")
        must_reject(bad_job.check, types.SimpleNamespace(ok=True, witness=None),
                    f"fail2 {name} reported holding")
        n = 7 if name == "alexander:7" else 4
        other = (x, y, (z + 1) % n)
        must_reject(bad_job.check, types.SimpleNamespace(ok=False, witness=other),
                    f"fail2 {name} witness moved to {other}")
    for kind in ("braid (1, 2, 1)=(2, 1, 2) dense3 square-reflection",
                 "braid (1, 3)=(3, 1) pass2 square-reflection"):
        job = jobs[kind]
        a, b = job.call()
        job.check((a, b))
        must_reject(job.check, (a, fake_mat(perturb(b.to_json(), 0))),
                    f"{kind} one side changed")
    job = jobs["deform square-reflection"]
    code, out = job.call()
    job.check((code, out))
    rep = json.loads(out)
    must_reject(job.check, (0, json.dumps(dict(rep, ybe=False))),
                "deform ybe false")
    must_reject(job.check, (0, json.dumps(dict(rep, matrix=perturb(rep["matrix"], 0)))),
                "deform matrix not c_Q mod h")

    print("normalize")
    jobs = jobs_by_kind(ctx, "normalize")
    job = jobs["normalize trunc5 square-reflection"]
    alpha, out = job.call()
    job.check((alpha, out))
    wrap = lambda data: types.SimpleNamespace(mat=fake_mat(data))  # noqa: E731
    a, c = alpha.mat.to_json(), out.mat.to_json()
    must_reject(job.check, (wrap(perturb(a, 0)), out), "alpha not I mod h")
    must_reject(job.check, (alpha, wrap(perturb(c, 2))),
                "(alpha x alpha) out != op (alpha x alpha)")
    dim, order = alpha.mat.dim, alpha.mat.order
    one = ["1"] + ["0"] * (order - 1)
    identity = {"dim": dim, "trunc": order,
                "entries": [[i, i, one] for i in range(dim)]}
    op_json = job.call.__defaults__[0].mat.to_json()  # the job's input
    must_reject(job.check, (wrap(identity), wrap(op_json)),
                "alpha = I and out = op: equation holds, not entropic")


def counts_repeat():
    print("counting runs")
    results = []
    for _ in range(2):
        p = subprocess.run(
            [sys.executable, os.path.join(run.BENCH_DIR, "run.py"),
             "--workload", "ybe-check", "--seed", "3", "--seconds", "1",
             "--trace", "1"], capture_output=True, text=True, check=True)
        metrics = json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
        results.append({k: v["value"] for k, v in metrics.items()
                        if v["unit"] == "count"})
    if results[0] != results[1] or not any(results[0].values()):
        raise SystemExit(f"selftest: counts differ or are all zero: {results}")
    print(f"  identical: {results[0]}")


def fails_without_program():
    print("bare directory")
    bare = os.path.join(run.OUT_DIR, f"bare-{os.getpid()}")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        p = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "normalize",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        raise SystemExit("selftest: ran without the program's source")
    print(f"  exit {p.returncode}: {p.stderr.strip()}")


def main():
    ctx = workloads.Context(run.load_program(), run.make_scratch())
    try:
        planted(ctx)
    finally:
        shutil.rmtree(ctx.scratch, ignore_errors=True)
    counts_repeat()
    fails_without_program()
    print("selftest: ok")


if __name__ == "__main__":
    main()
