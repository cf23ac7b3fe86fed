"""One in-process workload of the zpure benchmark, run in a fresh process.

run.py starts this script and times it from the outside.  The protocol on
stdout is one line ``ready`` once set-up is done, then, after run.py writes
``go`` on stdin, one JSON line with the measured phase.  If stdin closes
instead, the process exits after set-up (a set-up-only sample).

The measured phase is the sum of the op intervals.  Each op's input is made
from the seed before its interval starts.  An op that runs past its time
budget is interrupted with SIGALRM: it is attempted and not completed, and
its interval stays in the measured phase.  Only a wrong output or a crash
counts as failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


class OverBudget(BaseException):
    """Raised by SIGALRM inside an op that exceeded its budget."""


def _alarm(signum, frame):
    raise OverBudget()


def run_with_budget(budget: float, fn, *args):
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# ---------------------------------------------------------------------------
# Workloads: set-up, input for op i, and the op itself.  An op returns
# (output is correct, digest line).


class Harness:
    """purity_report on seeded random sequences over Z/12, warm catalogs."""

    modulus = 12

    def setup(self):
        from zpure.ppdef import enumerate_pp
        from zpure.purity import fp_catalog

        enumerate_pp(self.modulus, 1, 2, 2)
        fp_catalog(self.modulus, 2)

    def make_input(self, seed: int, i: int):
        from zpure.finmod import random_ses

        return random_ses(self.modulus, seed=f"{seed}:{i}", max_gens=3)

    def run(self, seq, budget: float):
        from zpure.purity import purity_report

        report = run_with_budget(budget, purity_report, seq)
        line = "".join("1" if v else "0" for v in report.verdicts.values())
        return report.consensus, line


class Lemmas:
    """One round per op: each of the five suites once, with trials=1 and the
    op's derived seed.  The budget applies to each suite call."""

    modulus = 24
    suites = ("suite_coend_evaluation", "suite_restriction", "suite_hom_tensor",
              "suite_dual_of_hom", "suite_fully_faithful")

    def setup(self):
        from zpure.funcat import build_index_category

        build_index_category(self.modulus)

    def make_input(self, seed: int, i: int):
        return f"{seed}:{i}"

    def run(self, derived: str, budget: float):
        from zpure import suites

        ok, counts = True, []
        for name in self.suites:
            result = run_with_budget(budget, getattr(suites, name), self.modulus, 1, derived)
            ok = ok and result.ok and result.total > 0
            counts.append(f"{result.passed}/{result.total}")
        return ok, " ".join(counts)


WORKLOADS = {"harness-n12": Harness, "lemmas-n24": Lemmas}


def measure(work, seed: int, seconds: float, prefix_ops: int, prefix_only: bool,
            budget: float, tracer) -> dict:
    latencies = []
    wrong = over = 0
    busy = cpu = 0.0
    digest = hashlib.sha256()
    i = 0
    while (busy < seconds or i < prefix_ops) and not (prefix_only and i >= prefix_ops):
        inp = work.make_input(seed, i)
        if tracer is not None:
            tracer.op = i
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            ok, line = work.run(inp, budget)
        except OverBudget:
            ok, line = None, "over budget"
        except Exception as exc:  # a crash on valid input is a wrong output
            ok, line = False, f"error {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        cpu += time.process_time() - c0
        busy += dt
        if ok is None:
            over += 1
            if tracer is not None:
                tracer.unwind()
        elif not ok:
            wrong += 1
        else:
            latencies.append(dt)
        if i < prefix_ops:
            digest.update(f"{i} {line}\n".encode())
        i += 1
    if tracer is not None:
        tracer.op = -1
    return {
        "attempted": i,
        "wrong": wrong,
        "over_budget": over,
        "busy_s": busy,
        "cpu_s": cpu,
        "latencies_s": latencies,
        "digest": digest.hexdigest(),
        "digest_ops": min(i, prefix_ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--prefix-ops", type=int, default=1,
                   help="attempt at least these first ops and digest their outputs")
    p.add_argument("--prefix-only", action="store_true", help="stop after the prefix")
    p.add_argument("--budget", type=float, required=True,
                   help="seconds per op (per suite call for lemmas-n24)")
    p.add_argument("--trace-dir", help="record spans into this directory")
    args = p.parse_args(argv)

    tracer = None
    if args.trace_dir:
        import spans

        tracer = spans.install(args.trace_dir)
    else:
        import zpure.cli  # noqa: F401  (the whole package, as the CLI loads it)
    work = WORKLOADS[args.workload]()
    work.setup()
    signal.signal(signal.SIGALRM, _alarm)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    result = measure(work, args.seed, args.seconds, args.prefix_ops, args.prefix_only,
                     args.budget, tracer)
    if tracer is not None:
        tracer.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
