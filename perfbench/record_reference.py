"""Record the reference outputs that runs on the default seed are checked against.

Run from the repository root at a commit whose outputs are known to be right:

    python3 perfbench/record_reference.py

It writes reference_seed0.json next to this file. A later change that alters
an output on purpose re-records the reference and says why.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads
import checks
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import dpgenlab.cli

    reference: dict[str, dict] = {}
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        for workload in workloads.WORKLOADS:
            inputs, outputs = Path(tmp, workload, "inputs"), Path(tmp, workload, "outputs")
            workloads.write_inputs(workload, run.DEFAULT_SEED, inputs)
            outputs.mkdir()
            entries = reference.setdefault(workload, {})
            for op in workloads.cycle(workload, inputs, outputs):
                if dpgenlab.cli.main(list(op.argv)) != 0:
                    print(f"{workload} {op.name} failed", file=sys.stderr)
                    return 1
                entries[op.name] = [
                    checks.reference_entry(workload, Path(p).name, Path(p).read_bytes())
                    for p in op.outputs
                ]
    checks.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
