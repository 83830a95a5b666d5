"""Run a list of punctual CLI jobs in this one interpreter, one job per
request from the parent.

Usage: ``python child.py plain|traced``.  The first stdin line is
``{"jobs": [argv, ...]}``; the child imports ``punctual.cli`` (and in
``traced`` mode installs the spans) and writes ``ready``.  Then, for each
job, it waits for one stdin line, runs the job through
``punctual.cli.main(argv)`` with its stdout and stderr captured, and writes
one JSON line: status, stdout, stderr and seconds.  The parent times its
calibration kernel while the child waits, so the two never run at once.
The package's caches stay warm from job to job, as in a long-lived library
session.  After the last job it writes one more JSON line: the hopf cache
counters, and in ``traced`` mode the spans and the counters read from the
kept results.  Everything but the jobs themselves runs outside the timed
region.
"""

import io
import json
import sys
import time
import traceback

import spans


def run_job(cli, argv):
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # an uncaught error in the CLI exits 1 with a traceback
        traceback.print_exc()
        status = 1
    finally:
        seconds = time.perf_counter() - start
        out, err = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdout, sys.stderr = saved
    return {"status": status or 0, "stdout": out, "stderr": err,
            "seconds": seconds}


def reply(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main():
    mode = sys.argv[1]
    jobs = json.loads(sys.stdin.readline())["jobs"]
    tracer = spans.Tracer() if mode == "traced" else None
    import punctual.cli
    if tracer is not None:
        spans.install(tracer)
    reply("ready")
    for index, argv in enumerate(jobs):
        if not sys.stdin.readline():
            return
        if tracer is not None:
            tracer.job = index
        reply(run_job(punctual.cli, argv))
    counters = spans.cache_stats()
    final = {"counters": counters}
    if tracer is not None:
        counters.update(spans.counters(tracer))
        final["spans"] = tracer.spans
    reply(final)


if __name__ == "__main__":
    main()
