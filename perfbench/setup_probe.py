"""One set-up sample in a fresh interpreter: import diskflow, then parse,
compile and linearize the workload's generators.  Prints
``{"import_s": ..., "inputs_s": ...}``.  Started by run.py:

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402

if __name__ == "__main__":
    import_s, inputs_s, _, _ = run._timed_setup(sys.argv[1], int(sys.argv[2]))
    print(json.dumps({"import_s": import_s, "inputs_s": inputs_s}))
