"""Capture the cli workload's goldens: exit code, stdout and written scenario
of every catalogue command, from the checkout this file sits in.

    python3 perfbench/capture_goldens.py

Goldens pin the library's behaviour, so capture them on the commit the
benchmark is defined against and again only when a change is meant to alter
CLI output; a change that claims a speed-up keeps them.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    Path(workloads.CLI_OUT).parent.mkdir(exist_ok=True)
    goldens = workloads.capture_goldens()
    workloads.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    for name, g in sorted(goldens.items()):
        print(f"{name}: exit {g['code']}, {len(g['stdout'])} bytes of stdout")
    return 0


if __name__ == "__main__":
    sys.exit(main())
