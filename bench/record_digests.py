#!/usr/bin/env python3
"""Record the pass digests that run.py writes to standard error.

    python3 bench/run.py --workload trend_grid --seed 5 2> run.log
    python3 bench/record_digests.py run.log [more.log ...]

Each ``digest <workload> <data seed> <hash>`` line is merged into
``digests.json``, which later runs check their models against. A data seed
already recorded with another hash is an error: for a given seed, the saved
models must stay byte-identical.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def main(logs: list[str]) -> int:
    table = json.loads(DIGESTS.read_text())
    added = 0
    for log in logs:
        for line in Path(log).read_text().splitlines():
            parts = line.split()
            if len(parts) != 4 or parts[0] != "digest":
                continue
            _, workload, seed, digest = parts
            recorded = table.setdefault(workload, {})
            if seed not in recorded:
                recorded[seed] = digest
                added += 1
            elif recorded[seed] != digest:
                print(f"{log}: {workload} seed {seed} hashes to {digest}, "
                      f"recorded {recorded[seed]}", file=sys.stderr)
                return 1
    for workload in table:
        table[workload] = dict(sorted(table[workload].items(), key=lambda kv: int(kv[0])))
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"{added} new digests, {sum(map(len, table.values()))} recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
