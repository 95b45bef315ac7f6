"""Record the per-line CSV digests that the correctness gate checks.

    python3 perfbench/record_digests.py

Writes ``digests.json``: for every workload at the default seed, a short
SHA-256 of each line of its reference pass.  Run it only in a change that
changes nothing but the benchmark, such as one that follows a new
``pass-trihybrid vN`` CSV banner.
"""

from __future__ import annotations

import json
import sys

from run import DEFAULT_SEED, import_library


def main() -> int:
    import_library()
    import harness

    record = {}
    for name in harness.WORKLOADS:
        work = harness.build(name, DEFAULT_SEED)
        lines = harness.reference_lines(work)
        record[name] = {"seed": DEFAULT_SEED, "lines": [harness.line_digest(ln) for ln in lines]}
    harness.DIGESTS.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {harness.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
