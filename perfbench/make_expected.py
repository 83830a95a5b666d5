"""Write perfbench/expected.json from the program as it stands.

It records, for the default seed, every job's exit status and stdout
sha256, and the stdout of every basis job that the linear oracles combine.
Each job runs in a fresh ``python -m punctual.cli`` process.  Run it from
the repository root, only at a commit whose outputs are trusted, and only
when the job lists change:

    python3 perfbench/make_expected.py
"""

import hashlib
import json

import run
import workloads


def cli(argv):
    status, out, _, _ = run.spawn([run.PYTHON, "-m", "punctual.cli"] + argv)
    return status, out.decode()


def main():
    run.OUT.mkdir(exist_ok=True)
    digests, basis = {}, {}
    for name in sorted(workloads.WORKLOADS):
        jobs = workloads.make_jobs(name, workloads.DEFAULT_SEED)
        digests[name] = []
        for job in jobs:
            status, out = cli(job["argv"])
            digests[name].append({
                "argv": job["argv"], "status": status,
                "sha256": hashlib.sha256(out.encode()).hexdigest()})
        for argv in workloads.basis_argvs(jobs):
            status, out = cli(argv)
            if status != 0:
                raise SystemExit("basis job failed: %s" % " ".join(argv))
            basis[workloads.basis_key(argv)] = out
    run.EXPECTED.write_text(json.dumps(
        {"default_seed": workloads.DEFAULT_SEED, "digests": digests,
         "basis": basis}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
