"""Benchmark of zpure, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it uses only the standard library and
the sources under src/.  Workloads (see perfbench/README.md):

  cli-random-j2  one `python -m zpure.cli random ... --jobs 2` process per op
  lemmas-n24     one round of the five lemma suites per op at N=24, in one process
  harness-n12    purity_report on random sequences over Z/12, in one process;
                 not in BENCHMARK.json, whose time limit it does not fit

With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
first ops of the seed twice, untraced and traced, and prints the per-layer
metrics and the tracing overhead.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The lines before it
say the same for a reader.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path.insert(0, HERE)

import spans  # noqa: E402

WORKLOADS = ("harness-n12", "cli-random-j2", "lemmas-n24")
SETUP_SAMPLES = {"harness-n12": 3, "cli-random-j2": 15, "lemmas-n24": 15}
# Seconds an op may run before it is interrupted; an interrupted op is
# attempted but not completed, and its time stays in the measured phase.  For
# lemmas-n24 the budget applies to each suite call of a round.  It sits in the
# gap between the slowest suite call that finishes (about 0.3 s) and the calls
# that do not finish within 20 s.  Traced ops get TRACED_BUDGET times as long,
# since tracing slows them by up to a half.
BUDGET = {"harness-n12": 10.0, "cli-random-j2": 60.0, "lemmas-n24": 0.5}
TRACED_BUDGET = 2
# The digest covers these first ops of a seed; timed runs attempt at least
# this many, and a traced run attempts exactly this many.
PREFIX_OPS = {"harness-n12": 200, "cli-random-j2": 4, "lemmas-n24": 20}
CLI_TRIALS = 40
CLI_MODULI = (8, 9)
DEADLINE_S = 170.0


class BenchError(Exception):
    """The benchmark could not measure (missing sources, crash, deadline)."""


class Clock:
    def __init__(self):
        self.start = time.monotonic()

    def left(self) -> float:
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 0:
            raise BenchError("run deadline passed")
        return left


def src_lines() -> int:
    total = 0
    for base, _dirs, files in os.walk(os.path.join(SRC, "zpure")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    total += fh.read().count(b"\n")
    return total


def p90(values):
    # "inclusive" interpolates between samples; with the 16 or so samples of a
    # cli-random-j2 run, "exclusive" would extrapolate towards the maximum.
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# ---------------------------------------------------------------------------
# In-process workloads: worker.py in a fresh process


class Worker:
    """One worker.py process; its set-up is timed from spawn to `ready`."""

    def __init__(self, workload: str, clock: Clock, **opts):
        opts.setdefault("budget", BUDGET[workload])
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload]
        for key, val in opts.items():
            flag = f"--{key.replace('_', '-')}"
            if val is True:
                argv.append(flag)
            elif val not in (None, False):
                argv += [flag, str(val)]
        self.clock = clock
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], clock.left())
            line = self.proc.stdout.readline() if ready else ""
            self.setup_s = time.perf_counter() - t0
            if line.strip() != "ready":
                raise BenchError(f"{workload} worker did not finish set-up")
        except BaseException:
            self.kill()
            raise

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def _send(self, line: str) -> str:
        try:
            return self.proc.communicate(line, timeout=self.clock.left())[0]
        except BaseException:
            self.kill()
            raise

    def stop(self):
        self._send("")

    def go(self) -> dict:
        out = self._send("go\n")
        if self.proc.returncode != 0 or not out.strip():
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])


def run_inprocess(workload: str, seed: int, clock: Clock, setups: int, **opts):
    samples = []
    for _ in range(setups - 1):
        w = Worker(workload, clock, seed=seed)
        samples.append(w.setup_s)
        w.stop()
    w = Worker(workload, clock, seed=seed, **opts)
    samples.append(w.setup_s)
    res = w.go()
    res["setup_samples"] = samples
    return res


# ---------------------------------------------------------------------------
# cli-random-j2: one CLI process per op, timed from outside


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def cli_seed(seed: int, i: int) -> int:
    return int(hashlib.sha256(f"{seed}:{i}".encode()).hexdigest()[:8], 16)


def cli_args(seed: int, i: int, jobs: int = 2) -> list[str]:
    return ["random", "--modulus", str(CLI_MODULI[i % 2]), "--trials", str(CLI_TRIALS),
            "--seed", str(cli_seed(seed, i)), "--jobs", str(jobs), "--format", "json"]


def run_process(argv: list[str], clock: Clock, budget: float):
    """(exit code or None when over budget, stdout, wall s, cpu s of the tree)."""
    timeout = min(budget, clock.left())
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=cli_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        code = None
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return code, out, wall, cpu


def check_cli_output(out: bytes, i: int) -> bool:
    try:
        doc = json.loads(out)
        counts = doc["checker_false_counts"]
        return (doc["kind"] == "harness-summary" and doc["modulus"] == CLI_MODULI[i % 2]
                and doc["trials"] == CLI_TRIALS and doc["disagreements"] == 0
                and doc["pure_count"] + counts["split"] == CLI_TRIALS
                and len(set(counts.values())) == 1)
    except (ValueError, KeyError, TypeError):
        return False


def run_cli(seed: int, clock: Clock, seconds: float, prefix_only: bool = False,
            trace_dir: str | None = None) -> dict:
    prefix = PREFIX_OPS["cli-random-j2"]
    latencies = []
    wrong = over = 0
    busy = cpu = 0.0
    digest = hashlib.sha256()
    first_out = None
    i = 0
    # ops run in pairs, so both moduli weigh the same in every run
    while (busy < seconds or i < prefix or i % 2) and not (prefix_only and i >= prefix):
        if trace_dir is None:
            argv = [sys.executable, "-m", "zpure.cli"] + cli_args(seed, i)
        else:
            argv = [sys.executable, os.path.join(HERE, "cli_trace.py"), trace_dir,
                    str(i)] + cli_args(seed, i)
        code, out, wall, used = run_process(argv, clock, BUDGET["cli-random-j2"])
        busy += wall
        cpu += used
        if code is None:
            over += 1
            line = "over budget"
        elif code != 0 or not check_cli_output(out, i):
            wrong += 1
            line = f"exit {code}"
        else:
            latencies.append(wall)
            line = hashlib.sha256(out).hexdigest()
        if i == 0:
            first_out = out if code == 0 else None
        if i < prefix:
            digest.update(f"{i} {line}\n".encode())
        i += 1
    return {
        "attempted": i, "wrong": wrong, "over_budget": over,
        "busy_s": busy, "cpu_s": cpu, "latencies_s": latencies,
        "digest": digest.hexdigest(), "digest_ops": min(i, prefix),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "first_out": first_out,
    }


def cli_setup(clock: Clock, samples: int) -> list[float]:
    times = []
    for _ in range(samples):
        code, out, wall, _ = run_process([sys.executable, "-m", "zpure.cli", "--version"],
                                         clock, 60.0)
        if code != 0 or not out.startswith(b"zpure "):
            raise BenchError("`python -m zpure.cli --version` failed")
        times.append(wall)
    return times


def cli_matches_jobs1(seed: int, clock: Clock, first_out) -> bool:
    """README promise: `random` prints the same bytes for --jobs 1 and 2."""
    code, out, _, _ = run_process([sys.executable, "-m", "zpure.cli"] +
                                  cli_args(seed, 0, jobs=1), clock, 60.0)
    return code == 0 and first_out is not None and out == first_out


# ---------------------------------------------------------------------------
# Runs


def end_to_end(res: dict, setup_samples: list[float]) -> dict:
    lat = res["latencies_s"]
    if not lat:
        raise BenchError(f"no op completed: {res['attempted']} attempted, "
                         f"{res['wrong']} wrong, {res['over_budget']} over budget")
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (len(lat) / res["busy_s"], "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "op_p90_ms": (p90(lat) * 1000, "ms"),
        "cpu_per_op_s": (res["cpu_s"] / res["attempted"], "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def timed_run(workload: str, seed: int, seconds: float, clock: Clock):
    if workload == "cli-random-j2":
        setups = cli_setup(clock, SETUP_SAMPLES[workload])
        res = run_cli(seed, clock, seconds)
        res["wrong"] += 0 if cli_matches_jobs1(seed, clock, res["first_out"]) else 1
    else:
        res = run_inprocess(workload, seed, clock, SETUP_SAMPLES[workload],
                            seconds=seconds, prefix_ops=PREFIX_OPS[workload])
        setups = res["setup_samples"]
    metrics = end_to_end(res, setups)
    notes = {
        "setup_s": "median of %d fresh processes: %s" % (
            len(setups), ", ".join(f"{s:.3f}" for s in setups)),
        "ops_per_s": "%d completed in %.2f s" % (len(res["latencies_s"]), res["busy_s"]),
        "op_p50_ms": "%d samples" % len(res["latencies_s"]),
        "op_p90_ms": "%d samples" % len(res["latencies_s"]),
    }
    return res, metrics, notes


def traced_run(workload: str, seed: int, clock: Clock):
    prefix = PREFIX_OPS[workload]
    trace_dir = os.path.join(OUT, f"trace-{workload}")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    if workload == "cli-random-j2":
        plain = run_cli(seed, clock, 0, prefix_only=True)
        traced = run_cli(seed, clock, 0, prefix_only=True, trace_dir=trace_dir)
    else:
        opts = dict(prefix_ops=prefix, prefix_only=True)
        plain = run_inprocess(workload, seed, clock, 1, **opts)
        traced = run_inprocess(workload, seed, clock, 1, trace_dir=trace_dir,
                               budget=BUDGET[workload] * TRACED_BUDGET, **opts)
    if not plain["latencies_s"] or not traced["latencies_s"]:
        raise BenchError("no op completed")
    records, absent, import_ms = spans.read_spans(trace_dir)
    layers = spans.layer_metrics(records, absent, import_ms, traced["attempted"])

    def rate(res):
        # completed ops only: the two passes give interrupted ops different budgets
        return len(res["latencies_s"]) / sum(res["latencies_s"])

    layers["bench.trace_overhead"] = (rate(plain) / rate(traced), "ratio", False)
    layers["ops_failed_frac"] = ((plain["wrong"] + plain["over_budget"]) / plain["attempted"],
                                 "ratio", False)
    layers["zpure.src_lines"] = (src_lines(), "lines", False)
    if plain["digest"] != traced["digest"]:
        plain["wrong"] += 1
    plain["wrong"] += traced["wrong"]
    return plain, layers, {"absent targets": ", ".join(sorted(absent)) or "none",
                           "spans": f"{len(records) // spans.FIELDS} in "
                                    f"{os.path.relpath(trace_dir, ROOT)}"}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="zpure benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "zpure", "cli.py")):
        print(f"error: no zpure sources under {SRC}", file=sys.stderr)
        return 2
    clock = Clock()
    try:
        if args.trace:
            res, metrics, notes = traced_run(args.workload, args.seed, clock)
        else:
            res, metrics, notes = timed_run(args.workload, args.seed, args.seconds, clock)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"zpure benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    for name, (value, unit, *flag) in metrics.items():
        mark = "  absent" if flag and flag[0] else ""
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<36} {value:>14.6g} {unit}{mark}{note}")
    print(f"  ops: {res['attempted']} attempted, {len(res['latencies_s'])} completed, "
          f"{res['over_budget']} interrupted over the {BUDGET[args.workload]:g} s budget, "
          f"{res['wrong']} failed with a wrong output; ops_failed_frac "
          f"{(res['over_budget'] + res['wrong']) / res['attempted']:.4f}")
    print(f"  digest of the first {res['digest_ops']} ops: {res['digest'][:16]}")
    print(f"  src/zpure lines: {src_lines()}")
    for key in ("absent targets", "spans"):
        if key in notes:
            print(f"  {key}: {notes[key]}")

    out = {}
    for name, (value, unit, *flag) in metrics.items():
        out[name] = {"value": value, "unit": unit}
        if flag and flag[0]:
            out[name]["absent"] = True
    # `failed` counts wrong outputs; interrupted ops are in `attempted` only
    print(json.dumps({"correct": res["wrong"] == 0, "attempted": res["attempted"],
                      "failed": res["wrong"], "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
