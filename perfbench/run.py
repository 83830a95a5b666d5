"""Benchmark of the punctual CLI: cold-process and session timings, exact
output checks, and an outside-in layer trace.

Usage, from the repository root:

    python3 perfbench/run.py --workload gamma-d3 --seed 1 --seconds 35 \\
        --trace 0

``--workload all`` runs every workload in turn.  One client sends one job
at a time (closed loop).  With ``--trace 0`` a run alternates two timed
passes over the workload's job list until ``--seconds`` have gone by:

* cold pass: every job in a fresh ``python -m punctual.cli`` process, what
  a CLI user pays;
* session pass: the same jobs through ``punctual.cli.main`` in one fresh
  child interpreter, timed inside the child, what a library user pays.

Passes alternate until ``--seconds`` are up, at least one of each.  On a
shared 2-vCPU VM the speed at which the host runs Python swung by up to
2x within seconds and drifted between minutes, invisibly to the guest
(no steal time, CPU time equal to wall time), so raw times of one job
spread by 20-60% from run to run whatever the statistic.  The benchmark
therefore times a fixed calibration kernel, exact rational arithmetic
like punctual's own, right before and right after every timed job and
every set-up sample, and reports each time scaled to a host on which the
kernel takes ``REF_SECONDS`` (seconds at reference speed).  The run is
pinned to one vCPU, so the kernel and the jobs run on the same one:
unpinned, the two vCPUs slowed independently and the scaled times spread
by up to 26%.  Set-up samples are scaled the same way by a bare
interpreter started around each one, since process start-up does not
follow the kernel.  The references are the benchmark's own code and
Python's, so a change to punctual moves the scaled times by exactly the
share it moves the raw ones.  ``wall_s`` and ``session_s`` sum, over the
jobs, each job's median scaled time among the run's passes; ``setup_s``
is the median scaled time of the import-only interpreters timed after
every pass.  The RSS figures are medians over passes.  Every scaled and
raw job time and every set-up time is kept in the run's JSON file, with
the hopf cache counters read after the last session pass.

With ``--trace 1`` a run alternates session passes and traced passes (the
session pass again, with spans around each module's entry points, see
spans.py) and reports per-layer self times (medians over traced passes,
at reference speed) and counts.  Every job of every pass is checked: exit
status 0, the same stdout in every pass, the committed sha256 for the
default seed and an independent oracle for any seed (workloads.py).  The
program is taken from ``src/`` of this checkout; nothing is installed.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Details of each run (environment,
job times, observed digests, failures) go to
``perfbench/out/<workload>-seed<seed>-trace<trace>.json`` and the spans of
the last traced pass to ``perfbench/out/<workload>-seed<seed>.spans.jsonl``.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
EXPECTED = BENCH / "expected.json"
# Default run length, the one BENCHMARK.json gives the driver.
RUN_SECONDS = 35
PYTHON = sys.executable
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

# Import-only interpreters timed for setup_s after each pass; setup_s is
# their median over the run.
SETUP_SAMPLES = 2
# Seconds the calibration kernel takes on an unloaded core of a 2 GHz Xeon
# VM; job times are scaled to this speed (at_reference_speed).
REF_SECONDS = 0.025
# Seconds a bare ``python -c pass`` takes there; set-up samples are scaled
# to this speed.
BARE_SECONDS = 0.05

END_TO_END = {
    "wall_s": "s",
    "session_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "session_rss_mb": "MB",
}

PER_LAYER = {
    "series.log.self_s": "s", "series.log.calls": "count",
    "series.exp.self_s": "s", "series.exp.calls": "count",
    "series.mul.self_s": "s", "series.mul.calls": "count",
    "series.pow.self_s": "s", "series.pow.calls": "count",
    "series.terms_out": "count", "series.coeff_bits_max": "bits",
    "theories.value.self_s": "s", "theories.value.calls": "count",
    "theories.primitive_value.self_s": "s",
    "theories.primitive_value.calls": "count",
    "theories.pair.self_s": "s", "theories.pair.calls": "count",
    "theories.construct.self_s": "s",
    "hopf.mul.self_s": "s", "hopf.mul.calls": "count",
    "hopf.add.self_s": "s", "hopf.scaled.self_s": "s",
    "hopf.vertical_element.self_s": "s",
    "hopf.vertical_element.terms_out": "count",
    "hopf.coproduct.self_s": "s", "hopf.coproduct.calls": "count",
    "hopf.to_p.self_s": "s", "hopf.to_q.self_s": "s",
    "hopf.antipode.self_s": "s",
    "hopf.cache.hit_ratio": "ratio", "hopf.cache.entries": "count",
    "genfun.gamma_integral_series.self_s": "s",
    "genfun.gamma.terms_checked": "count",
    "genfun.vertical_series.self_s": "s",
    "axioms.run_axiom_suite.self_s": "s",
    "cli.main.self_s": "s", "cli.output_bytes": "bytes",
    "trace_overhead_s": "s",
}


class BenchError(Exception):
    pass


def spawn(argv):
    """Run one process to completion: (status, stdout, max RSS in KiB,
    seconds).  stderr is appended to perfbench/out/stderr.log."""
    with open(OUT / "stderr.log", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=ENV,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss, seconds


def calibration_kernel():
    """Exact rational sums in a dict keyed by small tuples, the kind of work
    punctual does.  It is the benchmark's own code and never changes, so
    its time measures only how fast the host runs Python right now."""
    table = {}
    third = Fraction(1, 3)
    for i in range(1, 6000):
        key = (i % 37, i % 11, i % 5)
        table[key] = table.get(key, 0) + third * Fraction(i, i + 1)
    return table


def calibrate():
    start = time.perf_counter()
    calibration_kernel()
    return time.perf_counter() - start


def at_reference_speed(seconds, before, after, nominal=REF_SECONDS):
    """``seconds`` scaled to a host on which a reference takes ``nominal``
    seconds, by the reference's mean time just before and just after."""
    return seconds * 2 * nominal / (before + after)


def cold_pass(jobs):
    """Each job in a fresh interpreter, the kernel timed between jobs."""
    results = []
    before = calibrate()
    for job in jobs:
        status, out, rss, seconds = spawn([PYTHON, "-m", "punctual.cli"]
                                          + job["argv"])
        after = calibrate()
        results.append({"status": status, "stdout": out.decode(),
                        "rss_kb": rss, "seconds": seconds,
                        "ref_s": at_reference_speed(seconds, before, after)})
        before = after
    return results


class ChildFailed(Exception):
    pass


def _ask(proc, line):
    """Send one line to the session child and read its one-line answer."""
    proc.stdin.write(line.encode() + b"\n")
    proc.stdin.flush()
    answer = proc.stdout.readline()
    if not answer:
        raise ChildFailed("the session child ended early")
    return json.loads(answer)


def session_pass(jobs, mode):
    """All jobs in one child interpreter (child.py), handed to it one at a
    time with the kernel timed between them.  Returns (per-job results,
    the child's final counters and spans, its max RSS in KiB), or None
    when the child failed."""
    with open(OUT / "stderr.log", "ab") as err:
        proc = subprocess.Popen([PYTHON, str(BENCH / "child.py"), mode],
                                cwd=ROOT, env=ENV, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=err)
        final = None
        try:
            _ask(proc, json.dumps({"jobs": [job["argv"] for job in jobs]}))
            results = []
            before = calibrate()
            for _ in jobs:
                result = _ask(proc, "")
                after = calibrate()
                result["ref_s"] = at_reference_speed(result["seconds"],
                                                     before, after)
                results.append(result)
                before = after
            final = json.loads(proc.stdout.readline())
        except (ChildFailed, OSError, ValueError):
            final = None
        finally:
            if final is None:
                proc.kill()
            with contextlib.suppress(OSError):
                proc.stdin.close()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
    if final is None or os.waitstatus_to_exitcode(status) != 0:
        return None
    return results, final, usage.ru_maxrss


class Checker:
    """Counts every job execution and whether its output was right."""

    def __init__(self, jobs, expected, digests):
        self.jobs = jobs
        self.basis = expected["basis"]
        self.digests = digests            # committed, default seed only
        self.seen = [None] * len(jobs)    # first (status, sha256) per job
        self.verdicts = {}
        self.attempted = self.failed = 0
        self.failures = []

    def check(self, index, status, stdout, where):
        sha = hashlib.sha256(stdout.encode()).hexdigest()
        key = (index, status, sha)
        if key not in self.verdicts:
            self.verdicts[key] = self._verdict(index, status, sha, stdout)
        reason = self.verdicts[key]
        if reason is None and self.seen[index] not in (None, (status, sha)):
            reason = "output differs from an earlier pass"
        if self.seen[index] is None:
            self.seen[index] = (status, sha)
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"job": index, "pass": where,
                                      "reason": reason})

    def _verdict(self, index, status, sha, stdout):
        job = self.jobs[index]
        if status != 0:
            return "exit status %d" % status
        if self.digests is not None:
            entry = self.digests[index] if index < len(self.digests) else {}
            if entry.get("argv") != job["argv"]:
                return "no committed digest for this job"
            if (entry["status"], entry["sha256"]) != (status, sha):
                return "stdout sha256 differs from the committed digest"
        if not workloads.check_output(job, stdout, self.basis):
            return "stdout fails the %s oracle" % job["oracle"][0]
        return None

    def fail_all(self, where, reason):
        self.attempted += len(self.jobs)
        self.failed += len(self.jobs)
        if len(self.failures) < 20:
            self.failures.append({"job": None, "pass": where,
                                  "reason": reason})

    def observed(self):
        return [{"argv": job["argv"], "status": seen and seen[0],
                 "sha256": seen and seen[1]}
                for job, seen in zip(self.jobs, self.seen)]


def bare_interpreter():
    """Seconds for a fresh interpreter that imports nothing of punctual."""
    return spawn([PYTHON, "-c", "pass"])[3]


def setup_samples(count):
    """``count`` fresh interpreters that only import punctual.cli, each
    scaled by a bare interpreter started just before and just after it:
    process start-up slows with the host in its own way, which the
    calibration kernel does not follow."""
    samples = []
    before = bare_interpreter()
    for _ in range(count):
        status, _, _, seconds = spawn([PYTHON, "-c", "import punctual.cli"])
        if status != 0:
            raise BenchError("punctual.cli does not import")
        after = bare_interpreter()
        samples.append(at_reference_speed(seconds, before, after,
                                          BARE_SECONDS))
        before = after
    return samples


def median_total(passes):
    """Sum over jobs of each job's median time among the passes."""
    return sum(statistics.median(column) for column in zip(*passes))


def git_commit():
    """The checked-out commit, or "unknown" outside a git checkout.  The
    search for a repository stops at the root of this tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(workload, seed, seconds, trace, expected):
    jobs = workloads.make_jobs(workload, seed)
    digests = (expected["digests"][workload]
               if seed == workloads.DEFAULT_SEED else None)
    checker = Checker(jobs, expected, digests)
    setup_samples(1)  # compiles the bytecode cache before anything is timed
    kinds = ("session", "traced") if trace else ("cold", "session")
    job_times = {kind: [] for kind in kinds}
    raw_times = {kind: [] for kind in kinds}
    rss = {kind: [] for kind in kinds}
    setup, selfs, last, session_counters = [], {}, None, None
    deadline = time.perf_counter() + seconds
    passes = 0
    while passes < len(kinds) or time.perf_counter() < deadline:
        kind = kinds[passes % len(kinds)]
        passes += 1
        if kind == "cold":
            results = cold_pass(jobs)
            rss[kind].append(max(r["rss_kb"] for r in results))
        else:
            reply = session_pass(jobs, "plain" if kind == "session"
                                 else "traced")
            if reply is None:
                checker.fail_all(kind, "session child failed")
                continue
            results, final, rss_kb = reply
            rss[kind].append(rss_kb)
            if kind == "traced":
                last = (results, final)
                scale = [r["ref_s"] / r["seconds"] for r in results]
                for name, (self_s, _) in spans.self_times(
                        final["spans"], scale).items():
                    selfs.setdefault(name, []).append(self_s)
            else:
                session_counters = final["counters"]
        if not trace:
            setup += setup_samples(SETUP_SAMPLES)
        job_times[kind].append([r["ref_s"] for r in results])
        raw_times[kind].append([r["seconds"] for r in results])
        for index, result in enumerate(results):
            checker.check(index, result["status"], result["stdout"], kind)
    if not all(job_times.values()):
        raise BenchError("a pass never completed; see perfbench/out/"
                         "stderr.log")
    if trace:
        metrics = layer_metrics(job_times, selfs, last)
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": median_total(job_times["cold"]),
            "session_s": median_total(job_times["session"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss["cold"]) / 1024,
            "session_rss_mb": statistics.median(rss["session"]) / 1024,
        }
        units = END_TO_END
    env = {"python": platform.python_version(), "commit": git_commit(),
           "nproc": os.cpu_count(), "seed": seed, "jobs": len(jobs),
           "seconds": seconds, "trace": trace,
           "passes": {kind: len(v) for kind, v in job_times.items()}}
    report = {
        "workload": workload, "env": env,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "attempted": checker.attempted, "failed": checker.failed,
        "failed_frac": checker.failed / checker.attempted,
        "failures": checker.failures, "job_seconds": job_times,
        "raw_job_seconds": raw_times, "setup_seconds": setup,
        "session_counters": session_counters,
        "digests": checker.observed(),
    }
    if last is not None:
        report["layer_share"] = layer_share(*last)
    stem = "%s-seed%d" % (workload, seed)
    (OUT / ("%s-trace%d.json" % (stem, trace))).write_text(
        json.dumps(report, indent=1) + "\n")
    if last is not None:
        write_spans(OUT / (stem + ".spans.jsonl"), last[1]["spans"])
    return report


def layer_metrics(job_times, selfs, last):
    results, final = last
    calls = spans.self_times(final["spans"])
    counters = final["counters"]
    looked_up = counters["hopf.cache.hits"] + counters["hopf.cache.misses"]
    metrics = {
        "hopf.cache.hit_ratio": (counters["hopf.cache.hits"] / looked_up
                                 if looked_up else 0.0),
        "cli.output_bytes": sum(len(r["stdout"].encode()) for r in results),
        "trace_overhead_s": (median_total(job_times["traced"])
                             - median_total(job_times["session"])),
    }
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in counters:
            metrics[name] = counters[name]
        elif field == "self_s":
            metrics[name] = statistics.median(selfs.get(span, [0.0]))
        elif field == "calls":
            metrics[name] = calls.get(span, (0.0, 0))[1]
    return metrics


def layer_share(results, final):
    """Each module's summed self time in a traced pass, and its share of
    the pass's job time, largest first (both as measured)."""
    total = sum(r["seconds"] for r in results)
    by_module = {}
    for name, (self_s, _) in spans.self_times(final["spans"]).items():
        module = name.split(".")[0]
        by_module[module] = by_module.get(module, 0.0) + self_s
    return {module: {"self_s": self_s, "share": self_s / total}
            for module, self_s in sorted(by_module.items(),
                                         key=lambda kv: -kv[1])}


def write_spans(path, span_list):
    with open(path, "w") as fh:
        for index, (name, start, end, parent, job) in enumerate(span_list):
            fh.write(json.dumps({"id": index, "parent": parent, "job": job,
                                 "name": name, "start": start, "end": end})
                     + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "punctual" / "cli.py").is_file():
        print("error: no punctual sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # The calibration kernel runs here and the jobs in child processes;
    # both must run on the same vCPU, whose speed the kernel measures.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    expected = json.loads(EXPECTED.read_text())
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    reports = {}
    try:
        for name in names:
            reports[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace, expected)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    for name, report in reports.items():
        for metric, entry in report["metrics"].items():
            print("%-12s %-36s %14.6f %s" % (name, metric, entry["value"],
                                            entry["unit"]))
        print("%-12s %-36s %14.6f ratio" % (name, "failed_frac",
                                            report["failed_frac"]))
        print("%-12s env %s" % (name, json.dumps(report["env"])))
    if args.workload == "all":
        metrics = {"%s.%s" % (name, metric): entry
                   for name, report in reports.items()
                   for metric, entry in report["metrics"].items()}
    else:
        metrics = reports[args.workload]["metrics"]
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
