#!/usr/bin/env python3
"""Record the exact outputs the benchmark gates compare against.

Writes ``perfbench/reference.json``: the sha256 of the scan output
(``ScanRecord.to_json_line()`` lines, each ending in a newline) for every
scan range in ``workloads.SIZES``, and the ribbon table up to the largest
table bound.  Run it only at a commit whose results are known to be
right, from the root of a checkout:

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from twobridge import enumeration  # noqa: E402


def main() -> int:
    digests = {}
    for sizes in workloads.SIZES.values():
        lo, hi = sizes["scan"]["p_min"], sizes["scan"]["p_max"]
        digests[f"{lo}..{hi}"] = workloads.scan_digest(enumeration.conjecture_scan(lo, hi, jobs=2))
    top = max(sizes["catalog"]["table"] for sizes in workloads.SIZES.values())
    table = [[r.crossing, r.family0, r.family1, r.family2, r.total] for r in enumeration.ribbon_table(top)]
    workloads.REFERENCE_FILE.write_text(
        json.dumps({"scan_sha256": digests, "ribbon_table": table}, indent=1) + "\n", encoding="utf-8"
    )
    print(f"wrote {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
