"""Cold-start probe for ``setup_s``: import the library, run one warm-up op.

    python3 perfbench/coldstart.py WORKLOAD OP_JSON

``run.py`` times this whole process from launch to exit.  Exits 0 when the
operation completed (for the CLI, with exit code 0 or 3) and 1 otherwise.
"""

import json
import sys
from pathlib import Path


def main() -> int:
    name, op_path = sys.argv[1:3]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import poientropy  # noqa: F401
    import poientropy.cli  # noqa: F401

    import workloads

    with open(op_path, "r", encoding="utf-8") as handle:
        op = json.load(handle)
    out = workloads.WORKLOADS[name].run_op(op)
    if isinstance(out, dict) and out.get("code", 0) not in (0, 3):
        print(out.get("stderr", ""), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
