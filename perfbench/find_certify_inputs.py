"""Rebuild the `certify` input list from scratch.

    python3 perfbench/find_certify_inputs.py [--start 500] [--stop 640]

Run from the root of a kncross source tree.  Scans seeds in
[start, stop) and prints those whose random K_12 drawing is
4-bishellable but not 6-shellable, the class that bishellability adds
to shellability.  The 6-shell search runs first: a drawing that has a
witness is usually dismissed quickly, the rest need the exhaustive
search.  The seeds it prints are `CERTIFY_SEEDS` in `run.py`.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from run import CERTIFY_BISHELL_ORDER as BISHELL_ORDER
from run import CERTIFY_N as N
from run import CERTIFY_SHELL_LENGTH as SHELL_LENGTH


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--start", type=int, default=500)
    parser.add_argument("--stop", type=int, default=640)
    args = parser.parse_args()
    src = Path.cwd() / "src"
    if not (src / "kncross" / "__init__.py").is_file():
        print("error: run from the root of a kncross source tree", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from kncross import check_bishellable, check_s_shellable, gen_random_points

    found = []
    start = time.perf_counter()
    for seed in range(args.start, args.stop):
        drawing = gen_random_points(N, seed)
        if check_s_shellable(drawing, SHELL_LENGTH) is not None:
            continue
        if check_bishellable(drawing, BISHELL_ORDER) is None:
            continue
        found.append(seed)
        print(f"seed {seed}: {BISHELL_ORDER}-bishellable, not {SHELL_LENGTH}-shellable, "
              f"cr={drawing.crossings}", flush=True)
    print(f"seeds {args.start}..{args.stop - 1}: {found} "
          f"({time.perf_counter() - start:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
