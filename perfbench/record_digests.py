"""Record the report digest of every input in the default seed's pools.

    python3 perfbench/record_digests.py

Writes perfbench/digests.json.  A run with the default seed compares each
report against it, which holds the program to byte-identical reports; run
this again only in a change that says why its reports differ.
"""

from __future__ import annotations

import json
import os
import sys

import inputs
import run


def main():
    os.chdir(run.ROOT)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    import workloads

    recorded = {}
    for workload in inputs.WORKLOADS:
        try:
            _, digests, errors = run.closed_loop(
                workloads.cycles(workload, run.DEFAULT_SEED), 0, workloads.pool_size(workload),
                lambda k, item: workloads.execute(item), workloads.verify)
        finally:
            workloads.cleanup()
        failures = [k for k, error in enumerate(errors) if error is not None]
        if failures:
            sys.exit(f"{workload}: inputs {failures} failed; no digests written")
        recorded[workload] = digests
        print(f"{workload}: {len(digests)} digests", flush=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(recorded, handle, indent=0)
        handle.write("\n")


if __name__ == "__main__":
    main()
