"""Record the reference outputs that the benchmark's output check compares.

    python3 perfbench/record_reference.py

Runs the checked warm-up round of each workload at the default sizes and
seed, and writes strided rows and per-column sums of every output to
perfbench/reference.json. Rerun it only when a change to the program is
meant to change its outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # pins BLAS threads before NumPy is imported
import check
import workloads

SEED = 0


def main() -> int:
    sys.path.insert(0, run.SRC)
    refs = {}
    for name, cls in workloads.WORKLOADS.items():
        work = os.path.join(run.OUT, f"reference-{name}")
        try:
            wl = cls(work, SEED)
            wl.reference = None
            pasf = workloads.import_pasf()
            wl.generate(pasf)
            wl.warm_up(pasf)
            if wl.failed:
                print(f"{name}: checks failed: {wl.problems}", file=sys.stderr)
                return 1
            refs[name] = {
                "seed": SEED,
                "sizes": wl.sizes.key(),
                "outputs": {k: check.summarize(v) for k, v in wl.checked_outputs().items()},
            }
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(check.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {check.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
