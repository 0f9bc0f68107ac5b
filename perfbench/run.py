"""SLFE job benchmark: closed-loop analytics jobs through the public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pr-lj --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run starts fresh job processes (``worker.py``) for one workload,
generates the input from ``--seed``, runs one untimed warm-up job on a
small input, then runs jobs back to back -- each job starting when the
previous one returned -- for about ``--seconds`` seconds.  Afterwards,
outside the timed region, it checks every job's answer (SSSP exactly
against ``reference.dijkstra``; PageRank against ``reference.pagerank``
within tolerance; pool and out-of-core values bit-identical to a serial
run on the same input) and that the operation counts repeated exactly.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced jobs with jobs in a second process
that has the per-layer wrappers of ``ledger.py`` installed, reports the
per-layer metrics, and checks that the layer self times add up to the
traced job time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every job ran and answered correctly.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Every run, checks included, ends well inside the 180 s budget.
DEADLINE_S = 165.0
#: The traced ledger closes when layer self times sum to the traced
#: job time within this share of it.
LEDGER_TOLERANCE = 0.02
#: Counts that must repeat exactly across the jobs of one seed.
EXACT = ("edge_ops", "messages", "supersteps", "modeled_s")


def log(message: str = "") -> None:
    print(message, flush=True)


class Worker:
    """One job process and its JSON-lines channel."""

    def __init__(self, args, wl, role: str, label: str, work: str, env) -> None:
        self.name = "%s/%s" % (label, role)
        self.proc = subprocess.Popen(
            [
                sys.executable, os.path.join(HERE, "worker.py"),
                "--workload", wl.name, "--seed", str(args.seed),
                "--role", role, "--trace", "1" if label == "t" else "0",
                "--label", label, "--work", work,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
            text=True,
        )

    def read(self, deadline: float) -> dict:
        remaining = deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
        if not ready:
            raise RuntimeError("%s timed out" % self.name)
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                "%s exited with code %s" % (self.name, self.proc.wait())
            )
        return json.loads(line)

    def request(self, payload: dict, deadline: float) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        return self.read(deadline)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def worker_env(work: str) -> dict:
    """The job processes' environment: this checkout's sources, no
    ambient ``REPRO_*`` configuration (cache dir, shard size and cache,
    pool timeouts), temporary files inside the run's work directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = os.path.join(work, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def median(values):
    return statistics.median(values) if values else 0.0


def merge_layers(parts):
    """Sum the per-layer numbers of one job's processes (out-of-core
    setup and solve run in two; each ratio is nonzero in one only)."""
    out = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0) + value
    return out


def run_jobs(args, wl, work, deadline):
    """Closed loop over the workload's jobs; returns (jobs, peak_kib, info)."""
    labels = ["u", "t"] if args.trace else ["u"]
    roles = ["prep", "solve"] if wl.out_of_core else ["job"]
    env = worker_env(work)
    workers = {}
    try:
        for label in labels:
            for role in roles:
                workers[label, role] = Worker(args, wl, role, label, work, env)
        info = {}
        for worker in workers.values():
            hello = worker.read(deadline)
            if hello.get("fingerprint"):
                info.setdefault("fingerprints", set()).add(hello["fingerprint"])
                info["vertices"], info["edges"] = hello["vertices"], hello["edges"]

        jobs = []
        min_rounds = 1 if args.trace else 2
        t0 = time.monotonic()
        rounds = 0
        while True:
            round_t0 = time.monotonic()
            for label in labels:
                job = {"label": label, "rep": rounds}
                if wl.out_of_core:
                    prep = workers[label, "prep"].request(
                        {"op": "setup", "rep": rounds}, deadline
                    )
                    if "error" in prep:
                        job.update(prep)
                    else:
                        solved = workers[label, "solve"].request(
                            {"op": "solve", "rep": rounds,
                             "digest": prep["digest"]},
                            deadline,
                        )
                        job.update(solved)
                        job["setup_s"] = prep["setup_s"]
                        job["setup_samples"] = prep["setup_samples"]
                        if "layers" in prep and "layers" in solved:
                            job["layers"] = merge_layers(
                                [prep["layers"], solved["layers"]]
                            )
                else:
                    job.update(
                        workers[label, "job"].request(
                            {"op": "job", "rep": rounds}, deadline
                        )
                    )
                jobs.append(job)
            rounds += 1
            now = time.monotonic()
            if rounds >= min_rounds and now - t0 + (now - round_t0) > args.seconds:
                break
        info["measured_s"] = time.monotonic() - t0
        peak = 0
        for (label, role), worker in workers.items():
            done = worker.request({"op": "finish"}, deadline)
            if label == "u" and role in ("job", "solve"):
                peak = done["vmhwm_kib"]
            worker.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        return jobs, peak, info
    finally:
        for worker in workers.values():
            worker.stop()


def check(wl, seed, jobs, info):
    """Answer and repeatability checks; returns a list of problems."""
    import numpy as np
    import workloads as W

    problems = []
    checker = W.Checker(wl, seed)
    if info.get("fingerprints", set()) != {checker.fingerprint}:
        problems.append(
            "input graph differs between processes: %s vs %s"
            % (sorted(info.get("fingerprints", ())), checker.fingerprint)
        )
    first = None
    for job in jobs:
        where = "%s job %d" % (job["label"], job["rep"])
        bad = []
        if "error" in job:
            bad.append(job["error"])
        else:
            if not job["converged"]:
                bad.append("did not converge")
            if job["degraded"]:
                bad.append("pool degraded to inline execution")
            bad += checker.problems(np.load(job["values"]))
            counts = {k: job[k] for k in EXACT}
            if first is None:
                first = counts
            elif counts != first:
                bad.append("counts %s did not repeat %s" % (counts, first))
            if "layers" in job:
                job_s = job["setup_s"] + job["solve_s"]
                residual = (job_s - job["layers"]["ledger_sum_s"]) / job_s
                job["unattributed_frac"] = residual
                if abs(residual) > LEDGER_TOLERANCE:
                    bad.append(
                        "ledger does not close: layers sum to %.4f s of a "
                        "%.4f s job (%.2f%% unattributed, tolerance %.0f%%)"
                        % (job["layers"]["ledger_sum_s"], job_s,
                           100 * residual, 100 * LEDGER_TOLERANCE)
                    )
        job["problems"] = bad
        for problem in bad:
            problems.append("%s: %s" % (where, problem))
    return problems


#: Printed beside the end-to-end metrics but not in BENCHMARK.json:
#: ``messages`` is 0 on the single-node out-of-core job, ``supersteps``
#: swings with the seeded input far beyond any bound (see NOTES.md), and
#: ``error_rate`` is 0 whenever the run is valid (``failed`` carries it).
UNGATED = {"messages": "count", "supersteps": "count", "error_rate": "ratio"}


def end_to_end(jobs, peak_kib):
    """name -> (value, samples) from the untraced jobs."""
    attempted = [j for j in jobs if j["label"] == "u"]
    ok = [j for j in attempted if not j["problems"]]
    setup = [j["setup_s"] for j in ok]
    solve = [j["solve_s"] for j in ok]
    samples = [t for j in ok for t in j["setup_samples"]]
    values = {
        "setup_s": (median(samples), len(samples)),
        "solve_s": (median(solve), len(ok)),
        "job_s": (median([a + b for a, b in zip(setup, solve)]), len(ok)),
        "peak_rss_mb": (peak_kib / 1024.0, 1),
    }
    for key in EXACT:
        values[key] = (ok[0][key] if ok else 0, len(ok))
    failed = len(attempted) - len(ok)
    values["error_rate"] = (
        failed / len(attempted) if attempted else 1.0, len(attempted)
    )
    return values


def per_layer(jobs):
    """name -> (value, samples): medians over the traced jobs, plus the
    tracing overhead against the interleaved untraced jobs."""
    traced = [j for j in jobs if j["label"] == "t" and not j["problems"]]
    plain = [j for j in jobs if j["label"] == "u" and not j["problems"]]
    values = {}
    for key in traced[0]["layers"] if traced else ():
        values[key] = (median([j["layers"][key] for j in traced]), len(traced))
    job_t = median([j["setup_s"] + j["solve_s"] for j in traced])
    job_u = median([j["setup_s"] + j["solve_s"] for j in plain])
    values["trace.overhead_frac"] = (
        job_t / job_u - 1.0 if job_u else 0.0, len(traced)
    )
    values["trace.unattributed_frac"] = (
        median([j["unattributed_frac"] for j in traced]), len(traced)
    )
    log("  traced job_s %.4f s (n=%d), untraced job_s %.4f s (n=%d)"
        % (job_t, len(traced), job_u, len(plain)))
    return values


def run_one(args) -> int:
    spec = load_spec()
    import numpy
    import workloads as W

    wl = W.WORKLOADS[args.workload]
    log("perfbench %s: seed=%d seconds=%d trace=%d nproc=%d numpy=%s "
        "python=%s" % (wl.name, args.seed, args.seconds, args.trace,
                       os.cpu_count() or 0, numpy.__version__,
                       platform.python_version()))
    log("  %s" % {w["name"]: w["why"] for w in spec["workloads"]}[wl.name])
    work = os.path.join(ROOT, ".perfbench-work", "%s-%d" % (wl.name, os.getpid()))
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(work)
    try:
        try:
            jobs, peak, info = run_jobs(args, wl, work, deadline)
        except Exception as exc:  # a dead or hung job process
            traceback.print_exc()
            log("error: %s: %s" % (type(exc).__name__, exc))
            jobs, peak, info = [], 0, {}
        problems = check(wl, args.seed, jobs, info) if jobs else ["no job ran"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        parent = os.path.dirname(work)
        if os.path.isdir(parent) and not os.listdir(parent):
            os.rmdir(parent)

    log("  input %s/%d: |V|=%s |E|=%s; %d jobs in %.1f s"
        % (wl.dataset, wl.divisor, info.get("vertices"), info.get("edges"),
           len(jobs), info.get("measured_s", 0.0)))
    for label in ("u", "t") if args.trace else ("u",):
        mine = [j for j in jobs if j["label"] == label and "solve_s" in j]
        for key in ("setup_s", "solve_s"):
            log("  %s jobs %s: %s" % ("traced" if label == "t" else "untraced",
                                      key, " ".join("%.4f" % j[key] for j in mine)))
    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer(jobs) if args.trace else end_to_end(jobs, peak)
    units = {m["name"]: m["unit"] for m in spec[section]}
    rows = dict(units) if args.trace else dict(units, **UNGATED)
    log("  %-36s %16s  %-6s %s" % ("metric", "value", "unit", "n"))
    for name, unit in rows.items():
        value, n = values.get(name, (float("nan"), 0))
        log("  %-36s %16.6g  %-6s %d%s" % (
            name, value, unit, n, "" if name in units else "  (not gated)"))
    missing = [name for name in units if name not in values]
    if missing:
        problems.append("metrics not computed: %s" % ", ".join(missing))
    for problem in problems:
        log("  FAILED %s" % problem)
    attempted = len(jobs)
    failed = sum(1 for j in jobs if j.get("problems"))
    if problems and not failed:
        failed = max(1, attempted)
    correct = not problems
    metrics = {
        name: {"value": float(values.get(name, (0.0, 0))[0]), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own run of this script."""
    import workloads as W

    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.rstrip("\n").split("\n")
        for line in lines[:-1]:
            log(line)
        try:
            result = json.loads(lines[-1])
        except ValueError:
            log(lines[-1])
            result = {"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}
        totals["correct"] &= bool(result["correct"]) and proc.returncode == 0
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            totals["metrics"]["%s.%s" % (name, metric)] = entry
    print(json.dumps(totals), flush=True)
    return 0 if totals["correct"] else 1


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int,
                        help="measuring time (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no program sources at %s; run from a checkout of "
              "the repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print("error: imported repro from %s, not from %s"
              % (repro.__file__, SRC), file=sys.stderr)
        return 2
    import workloads as W

    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    if args.workload not in W.WORKLOADS:
        print("error: unknown workload %r (choose from %s, all)"
              % (args.workload, ", ".join(W.WORKLOADS)), file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
