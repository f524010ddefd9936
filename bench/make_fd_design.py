"""Regenerate fd_design.json, the fixed input of the fd-check workload.

The design is the one the default MBB run (config ``{}``) evaluates at
iteration 60: material joins the load to the supports and the operator
weights are still mixed, so every block of the design vector carries a
gradient.  It is stored rather than recomputed so that a roundoff-level
change in the optimizer's trajectory cannot move the benchmark's input.

    python3 bench/make_fd_design.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ITERATION = 60


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from csgtopo.cli import config_from_dict
    from csgtopo.problem import Model, optimize

    config = {"mma": {"max_iter": ITERATION}}
    spec = config_from_dict(config)
    result = optimize(spec)
    z = result.history.records[ITERATION - 1].z
    j_val, g_v = Model(config_from_dict({})).evaluate(z)
    doc = {
        "config": {},
        "source": f"design evaluated at iteration {ITERATION} of the default MBB run",
        "J": j_val,
        "g_v": g_v,
        "z": [float(v) for v in z],
    }
    out = Path(__file__).resolve().parent / "fd_design.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}: J={j_val:.6g} g_v={g_v:.3e} ({z.size} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
