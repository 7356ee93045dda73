"""Record the few-shot test MSE per seed into ``reference.json``.

    python3 perfbench/make_reference.py --seeds 0 48

runs the ``fewshot-dynamic`` workload's set-up and one ``fit`` for each
seed in ``range(first, stop)`` and stores the adapted test MSE next to the
seeds already recorded.  The benchmark checks against these values
(``workloads.TEST_MSE_REL_TOL``).  Run it again only when a change is
meant to alter what the model learns, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

from workloads import REFERENCE_FILE, FewShotDynamic, Ledger  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs=2, metavar=("FIRST", "STOP"),
                        required=True)
    args = parser.parse_args(argv)
    if args.seeds[0] >= args.seeds[1]:
        parser.error("empty seed range")
    with open(REFERENCE_FILE, "r", encoding="utf-8") as fh:
        recorded = json.load(fh)
    table = recorded["fewshot-dynamic"]["test_mse"]
    run.OUT.mkdir(parents=True, exist_ok=True)
    for seed in range(*args.seeds):
        with tempfile.TemporaryDirectory(dir=run.OUT) as scratch:
            workload = FewShotDynamic(seed, Path(scratch))
            workload.setup()
            ledger = Ledger()
            detail = workload.measure(ledger, 0.0, 1)
        if ledger.failed:
            print(f"seed {seed}: {ledger.checks}", file=sys.stderr)
            return 1
        table[str(seed)] = detail["test_mse"]
        print(seed, repr(detail["test_mse"]), repr(detail["backbone_mse"]),
              flush=True)
    with open(REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
