"""Record the outcomes the benchmark's output checks compare against.

Run from the repository root after an intentional behaviour change:

    python3 bench/record_expected.py

Each workload runs one round per text seed in ``SEEDS`` and records what its
``observed()`` lists. The script fails unless every seed, and every episode
of a key within a round, gives the same value, which is what lets one file
serve every ``--seed``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from workloads import EXPECTED_PATH, WORKLOADS  # noqa: E402

SEEDS = (0, 1, 2, 3)


def record(name: str) -> dict:
    expected: dict = {}
    for seed in SEEDS:
        with tempfile.TemporaryDirectory(dir=BENCH_DIR.parent) as tmp:
            workload = WORKLOADS[name](seed, Path(tmp))
            try:
                pairs = workload.observed(workload.round())
            finally:
                workload.close()
        for key, value in pairs:
            if expected.setdefault(key, value) != value:
                raise SystemExit(f"{name}: {key} depends on the text seed; "
                                 "cannot record it")
    return expected


def main() -> None:
    # one line per compared entry keeps the file short and its diffs readable
    blocks = []
    for name in WORKLOADS:
        body = ",\n  ".join(f'"{key}": {json.dumps(value, sort_keys=True)}'
                            for key, value in sorted(record(name).items()))
        blocks.append(f'"{name}": {{\n  {body}\n}}')
    EXPECTED_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
    print(f"wrote {EXPECTED_PATH}")


if __name__ == "__main__":
    main()
