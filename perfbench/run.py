"""Run one workload of the specmap benchmark and print its result.

    python3 perfbench/run.py --workload dereverb --seed 1 --seconds 20 --trace 0

Run from the root of a specmap checkout: the library is imported from its
`src/` directory, never from an installed copy. With `--trace 0` the last
line of standard output is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run. The lines before
it give the run context and every metric by name, with its unit. Exit code 2
means the checkout holds no specmap sources.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

# Pinned before numpy loads: the mapper's output bytes depend on the BLAS
# thread count, and one thread keeps timings steady on a shared machine.
BLAS_THREADS = "1"
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WORKLOAD_NAMES = ("dereverb", "map_infer", "train")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float,
                        help="how long the closed loop of timed passes runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_specmap(root: Path):
    """Import specmap from root/src, or return None when the checkout has no sources."""
    src = root / "src"
    if not (src / "specmap" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import specmap

    if Path(specmap.__file__).resolve().parent != (src / "specmap").resolve():
        return None
    return specmap


def main(argv=None) -> int:
    args = parse_args(argv)
    for variable in BLAS_THREAD_VARIABLES:
        os.environ[variable] = BLAS_THREADS
    root = Path(__file__).resolve().parent.parent
    if import_specmap(root) is None:
        print(f"error: no specmap sources under {root / 'src'}", file=sys.stderr)
        return 2

    import harness

    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result, passes = harness.run(
            args.workload, args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it

    print("context " + json.dumps(harness.run_context(root, BLAS_THREADS), sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"metric {name} {metric['value']} {metric['unit']}")
    walls = [p.wall_s for p in passes]
    print(f"untraced pass wall: {len(walls)} passes, median {statistics.median(walls)} s, "
          f"min {min(walls)} s, max {max(walls)} s; reference kernel median "
          f"{statistics.median(p.kernel_s for p in passes)} s")
    print(f"failed_frac {result['failed'] / result['attempted']} "
          f"({result['failed']} of {result['attempted']})")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
