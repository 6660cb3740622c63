"""Cold-start probe: import irssim (with its CLI) and build one workload's scenarios.

Usage: python3 bench/setup_probe.py <workload> <seed>
Prints {"import_s": ..., "scenario_s": ...} on stdout. run.py launches it in
fresh interpreters and times each launch from the outside.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.perf_counter()
import irssim  # noqa: E402
import irssim.cli  # noqa: E402,F401

imported = time.perf_counter()
import workloads  # noqa: E402

built_from = time.perf_counter()
workloads.build(sys.argv[1], int(sys.argv[2]))
print(json.dumps({"import_s": imported - start,
                  "scenario_s": time.perf_counter() - built_from}))
