"""Job process: runs one workload's jobs on request from ``run.py``.

Started with ``--role`` one of

* ``job``   -- in-memory workloads: each request is one job (setup, then
  solve) on a fresh copy of the seeded input graph;
* ``prep``  -- out-of-core setup: each request prepares a fresh graph and
  spills it into its own store directory;
* ``solve`` -- out-of-core solve: each request opens a spilled graph with
  ``load_spilled`` and runs it.  This process never holds the edges.

Requests and replies are JSON lines on stdin and on the process's
original stdout; anything the program prints goes to stderr instead.
With ``--trace 1`` the per-layer wrappers (``ledger.py``) are installed
and each job gets a ``TraceRecorder``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Input shrink factor for the untimed warm-up job that loads every
#: module and code path before the first measured job.
WARMUP_SHRINK = 100


def vmhwm_kib() -> int:
    """Peak resident set of this process (``VmHWM``), in KiB.

    Unlike ``ru_maxrss`` it is not inherited from the parent across
    ``exec``: it covers only what this process touched.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--role", choices=("job", "prep", "solve"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--label", default="u")
    args = parser.parse_args()

    proto = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    def reply(payload: dict) -> None:
        proto.write(json.dumps(payload) + "\n")
        proto.flush()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    ledger_mod = None
    led = None
    if args.trace:
        import ledger as ledger_mod

        led = ledger_mod.Ledger()
        ledger_mod.install(led, count_fsyncs=args.role != "prep")
    import numpy as np
    import workloads as W
    from repro.trace.recorder import TraceRecorder

    wl = W.WORKLOADS[args.workload]
    base = None
    if args.role != "solve":
        base = W.make_graph(wl, args.seed)

    def store_dir(tag) -> str:
        return os.path.join(args.work, "store-%s" % tag)

    def run_job(source, request, tag, setups=1):
        """Serve one request; returns the reply fields.

        ``job`` and ``prep`` time ``setups`` setups, each on a fresh copy
        of ``source``, and report them with their median as ``setup_s``;
        only the last one is solved (``job``) or handed to the solve
        process (``prep``).  The copies are made outside the timed region.
        """
        recorder = TraceRecorder() if args.trace else None
        if led is not None:
            led.reset()
        out, result = {}, None
        if args.role == "solve":
            gc.collect()
            t0 = time.perf_counter()
            result = W.solve_spilled(wl, store_dir(tag), request["digest"],
                                     recorder)
            out["solve_s"] = time.perf_counter() - t0
        else:
            times = []
            for i in range(setups):
                last = i == setups - 1
                where = store_dir(tag if last else "%s-x%d" % (tag, i))
                prepared = graph = None
                graph = W.fresh_copy(source)
                gc.collect()
                t0 = time.perf_counter()
                prepared = W.setup(wl, graph, where)
                times.append(time.perf_counter() - t0)
                if not last:
                    shutil.rmtree(where, ignore_errors=True)
            t1 = time.perf_counter()
            out["setup_s"] = statistics.median(times)
            out["setup_samples"] = times
            if args.role == "prep":
                out["digest"] = prepared.digest
                # Flush the setup's writes before the solve starts, so
                # the solve's fsyncs do not pay for their writeback.
                os.sync()
            else:
                result = W.solve(wl, prepared, recorder)
                out["solve_s"] = time.perf_counter() - t1
        if result is not None:
            out.update(W.result_counts(wl, result))
            out.update(converged=bool(result.converged),
                       degraded=bool(result.degraded))
            out["values"] = os.path.join(args.work, "values-%s.npy" % tag)
            np.save(out["values"], result.values)
        if led is not None:
            out["layers"] = ledger_mod.summarize(
                led, recorder,
                store_dir=store_dir(tag) if args.role == "prep" else None,
            )
        return out

    # Untimed warm-up on a small input of the same shape.
    warm = "warm-%s-%s" % (args.label, args.role)
    small = W.make_graph(wl, args.seed, divisor=wl.divisor * WARMUP_SHRINK)
    if args.role == "solve":
        prepared = W.setup(wl, small, store_dir(warm))
        run_job(None, {"digest": prepared.digest}, warm)
    else:
        run_job(small, {}, warm)
    reply({
        "ready": True,
        "fingerprint": W.fingerprint(base) if base is not None else "",
        "vertices": base.num_vertices if base is not None else 0,
        "edges": base.num_edges if base is not None else 0,
    })

    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "finish":
            reply({"vmhwm_kib": vmhwm_kib()})
            return 0
        tag = "%s-%d" % (args.label, request["rep"])
        try:
            # Traced jobs set up once, so the ledger covers one setup.
            reply(run_job(base, request, tag, 1 if args.trace else wl.setups))
        except Exception as exc:  # reported, counted as a failed job
            traceback.print_exc()
            reply({"error": "%s: %s" % (type(exc).__name__, exc)})
    return 0


if __name__ == "__main__":
    sys.exit(main())
