"""Record perfbench/golden/cli-small.json: a digest of the exit code and
stdout of each cli-small request of the default seed, in stream order.

Run from the repository root:  python3 perfbench/record_golden.py

The file covers the whole request pool of a run.  Every request must pass
its semantic check before anything is written.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import measure, program  # noqa: E402
from harness.workloads import DEFAULT_SEED, GOLDEN_FILE, WORKLOADS, output_digest  # noqa: E402


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    root = os.getcwd()
    workload = WORKLOADS["cli-small"]
    api = program.load(os.path.join(root, "src"))
    pool = list(itertools.islice(workload.stream(api, DEFAULT_SEED), workload.pool_size))
    ctx = workload.reference(root)
    records = [measure.run_op(workload, api, op, position) for position, op in enumerate(pool)]
    failed = [f"op {r.position}: {reason}" for r in records if (reason := measure.check(workload, pool, ctx, r))]
    if failed:
        print("\n".join(failed[:20]), file=sys.stderr)
        return 1
    digests = [output_digest(*record.result) for record in records]
    with open(GOLDEN_FILE, "w", encoding="utf-8") as handle:
        json.dump({"seed": DEFAULT_SEED, "digest": "sha256(f'{exit code}\\n{stdout}')[:12]",
                   "digests": digests}, handle, separators=(",", ":"))
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
