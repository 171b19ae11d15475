"""Rewrite digests.json: the report digests run.py holds every repeat to.

    python3 bench/make_digests.py

Runs each workload's commands once for each of seeds 0-9 under the same
gate as run.py, minus the digest comparison, and stores one sha256 per
command.
Run it only when a change to the reports is intended, and say so in the
change that commits the new digests.
"""

import json
import sys

from run import DIGESTS, Runner, work_dir
from workloads import WORKLOADS


def main():
    digests = {}
    with work_dir("digests-") as scratch:
        for name, workload in WORKLOADS.items():
            digests[name] = {}
            for seed in range(10):
                rep = Runner(workload, seed, scratch).repeat(traced=False)
                if rep.problems:
                    print(f"{name} seed {seed}: {'; '.join(rep.problems)}",
                          file=sys.stderr)
                    return 1
                digests[name][str(seed)] = rep.digests
                print(f"{name} seed {seed}: {rep.wall:.2f} s", flush=True)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
