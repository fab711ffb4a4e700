"""Write torus_reference.json: the torus-profile values of the default seed.

    python3 perfbench/dump_torus.py

The timed runs check every torus-profile value of the default seed
against this dump and fail an item whose value is lower by more than
1e-12 relative, so a faster optimizer cannot return weaker sups.
Regenerate it only when the pool of inputs changes.
"""

from __future__ import annotations

import json
import os

from run import OUT, import_toolkit
from workloads import DEFAULT_SEED, TORUS_DUMP, TorusProfile


def main() -> int:
    wl = TorusProfile(import_toolkit(), DEFAULT_SEED, os.path.join(OUT, "dump"), load_dump=False)
    values = []
    for rnd in wl.rounds:
        row = []
        for item in rnd:
            value = wl.run(item)
            err = wl.check(item, value)
            if err:
                raise SystemExit(f"dump_torus: {err}")
            row.append(value)
        values.append(row)
    with open(TORUS_DUMP, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "values": values}, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
