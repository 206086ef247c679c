#!/usr/bin/env python3
"""optforge benchmark: one workload, one seed, one mode.

    python3 perfbench/run.py --workload label-small --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics in a timed closed loop of ``optforge`` stage processes;
``--trace 1`` makes the traced in-process run and reports the
per-layer metrics.  The last line of standard output is the JSON
result; a per-run report with the machine facts goes to
``.perfbench_work/results/``.  See perfbench/README.md.
"""

import os
import sys

if __name__ == "__main__":
    sys.dont_write_bytecode = True  # keep the benchmark's own dir clean
    import stages

    # before numpy loads in this process (the in-process runs)
    os.environ.update(stages.BLAS_ENV)
    import harness

    sys.exit(harness.main())
