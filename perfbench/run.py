"""Benchmark entry point: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 25 --trace 0

Run from the repository root.  The program is imported from ``src/`` next to
this directory and nowhere else; without it the run exits with code 2 and
prints no result.  The last line of standard output is the result object;
the line before it holds the run's details (tail percentile and its sample
count, ``meters_sha``, workload-shape facts, first failures).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    package = ROOT / "src" / "spikeflow"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no spikeflow sources at {package}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import spikeflow

    if Path(spikeflow.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported spikeflow from {spikeflow.__file__}, not {package}", file=sys.stderr)
        return 2
    from perfbench.harness import main as harness_main

    return harness_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
