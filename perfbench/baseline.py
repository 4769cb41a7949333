"""Regenerate the baseline rows of ROADMAP.md that one command can measure.

    python3 perfbench/baseline.py [--seed N]

Runs the lattice-sweep and matrix-sweep workloads traced and prints, by
size: table building, the transitive closure and the distributivity scan
at 2^9 and MO256; eig against raw np.linalg.eigh at the largest random n;
microseconds per ray call there; and the dense Boolean build at the
largest m in the sweep.  Each figure is the inclusive time of one traced
pass on this host; the environment is saved with the rows in
``.perfbench/out/baseline-s<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    out = ROOT / ".perfbench" / "out"
    rows: dict[str, float] = {}
    for wl in ("lattice-sweep", "matrix-sweep"):
        res = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", wl,
                              "--seed", str(args.seed), "--seconds", "1", "--trace", "1"],
                             cwd=ROOT, capture_output=True, text=True, timeout=400)
        if res.returncode != 0:
            print(res.stderr, file=sys.stderr)
            return 1
        detail = json.loads((out / f"{wl}-s{args.seed}-t1.json").read_text())
        rows.update(detail["workers"][1]["baseline"])
        environment = detail["environment"]
    print("| what | size | measured |")
    print("| --- | --- | --- |")
    for key, value in rows.items():
        what, size = key.split("@")
        unit = "µs" if what.endswith("_us") else "s"
        print(f"| `{what.rsplit('_', 1)[0]}` | {size} | {value:.4g} {unit} |")
    (out / f"baseline-s{args.seed}.json").write_text(
        json.dumps({"rows": rows, "environment": environment}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
