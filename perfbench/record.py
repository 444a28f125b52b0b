"""Regenerate ``perfbench/reference.json``.

Run from the repository root (about ten minutes on one core)::

    python3 perfbench/record.py

``seeds`` holds, for every workload, the decision digests and the
deterministic metrics of the default seed and of a held-out seed, so a
claim tuned on one can be re-checked on the other; ``run.py`` refuses a
run on either seed whose decisions differ from the record.

``toggles`` holds traced per-layer splits of ``mesh12_fifo`` and
``mesh48_fill`` with the manager's defaults, with the distance-field
engine off (``incremental=False``) and with the admission gate off
(``fastpath=False``).  They are informational, one traced run each,
taken on whatever machine ran this script.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # as a script: the package and src/ by path
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import DEFAULT_SEED, measure  # noqa: E402
from perfbench.workloads import REFERENCE_PATH, WORKLOADS  # noqa: E402

HELD_OUT_SEED = 2027
TOGGLE_WORKLOADS = ("mesh12_fifo", "mesh48_fill")
TOGGLES = {
    "default": [],
    "no_incremental": ["--no-incremental"],
    "no_fastpath": ["--no-fastpath"],
}


def traced_split(name: str, flags: list[str]) -> dict:
    """One traced run in a fresh process, as the benchmark is run."""
    completed = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", name, "--seed", str(DEFAULT_SEED), "--seconds", "0",
         "--trace", "1", *flags],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(completed.stdout.splitlines()[-1])
    details = json.loads(completed.stderr.splitlines()[-1])
    return {
        "problems": details["problems"],
        "untraced_wall_s": details["totals"]["untraced_wall"],
        "decisions": details["totals"]["decisions"],
        "layers": {
            metric: entry["value"] for metric, entry in result["metrics"].items()
        },
    }


def main() -> int:
    reference: dict = {"seeds": {}, "toggles": {}}
    for name, workload in WORKLOADS.items():
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            result, details = measure(workload, seed, 0.0, trace=False)
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: {details['problems']}")
            reference["seeds"].setdefault(name, {})[str(seed)] = (
                details["deterministic"]
            )
            print(name, seed, "recorded", file=sys.stderr)
    # the traced runs below check their digests against these records
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    for name in TOGGLE_WORKLOADS:
        for label, flags in TOGGLES.items():
            reference["toggles"].setdefault(name, {})[label] = (
                traced_split(name, flags)
            )
            print(name, label, "traced", file=sys.stderr)
    reference["toggles_host"] = f"{platform.machine()} {platform.python_version()}"
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
