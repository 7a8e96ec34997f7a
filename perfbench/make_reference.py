"""Rewrite reference.json: the CSV sha256 of one sweep per workload for
seeds 0-31.

    python3 perfbench/make_reference.py

Run from the repository root on the tree whose output is the reference.
"""

import json
from concurrent.futures import ThreadPoolExecutor

import run

SEEDS = range(32)


def main():
    jobs = [(name, seed) for name in run.WORKLOADS for seed in SEEDS]

    def one(job):
        name, seed = job
        rec = run.run_sweep(name, seed, f"ref-{name}-s{seed}", False)
        if rec["problems"]:
            raise RuntimeError(f"{name} seed {seed}: {rec['problems']}")
        return name, seed, rec["sha256"]

    sha = {name: {} for name in run.WORKLOADS}
    # two sweeps at once, one per core
    with ThreadPoolExecutor(max_workers=2) as pool:
        for name, seed, digest in pool.map(one, jobs):
            sha[name][str(seed)] = digest
    ref = {"trials": {name: w.trials for name, w in run.WORKLOADS.items()}, "sha256": sha}
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
