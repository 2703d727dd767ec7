"""Set-up probe: a fresh interpreter imports coexpm from the working tree and
makes the workload's first call. run.py times this whole process.

    python3 perfbench/probe.py <workload> <src-dir> <out-dir>
"""

import sys

workload, src, out = sys.argv[1:4]
sys.path.insert(0, src)

import coexpm.cli  # noqa: E402

import workloads  # noqa: E402

sys.exit(workloads.warm_call(coexpm, workload, out))
