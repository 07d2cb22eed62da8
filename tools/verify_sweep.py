"""Run the verification suite over a range of seeds and count failures.

Usage:

    PYTHONPATH=src python tools/verify_sweep.py quick 1 200
    PYTHONPATH=src python tools/verify_sweep.py full 1 100

The seeds run one after another in this process, ``FIRST`` to ``LAST``
inclusive. For each check the sweep prints how many seeds failed it, its
largest observed-to-tolerance ratio and the seed where that fell, and each
failing seed with its observed value (or the error a raising check
reported). A deterministic check should fail at no seed; a statistical one
at about the false-alarm rate its docstring in ``rgw.verify`` states. The
exit status is 0 whatever the counts.
"""

from __future__ import annotations

import argparse
import math
import time

from rgw.verify import verify_suite


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("level", choices=("quick", "full"))
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args()

    seeds = range(args.first, args.last + 1)
    failures: dict[str, list[str]] = {}
    worst: dict[str, tuple[float, int]] = {}
    t0 = time.perf_counter()
    for seed in seeds:
        for check in verify_suite(args.level, seed)["checks"]:
            name = check["name"]
            found = failures.setdefault(name, [])
            if "error" in check:
                found.append(f"{seed} ({check['error']['type']})")
                continue
            tol, obs = check["tolerance"], check["observed"]
            ratio = obs / tol if tol else (math.inf if obs else 0.0)
            if name not in worst or ratio > worst[name][0]:
                worst[name] = (ratio, seed)
            if not check["passed"]:
                found.append(f"{seed} ({obs:.3g})")
    print(f"verify --{args.level}, seeds {args.first}-{args.last}: "
          f"{len(seeds)} seeds in {time.perf_counter() - t0:.0f} s")
    print(f"{'check':24s} {'failed':>6s} {'worst obs/tol':>13s} {'at':>4s}")
    for name, found in failures.items():
        ratio, seed = worst.get(name, (float("nan"), 0))
        print(f"{name:24s} {len(found):6d} {ratio:13.3g} {seed:4d}"
              + ("  " + ", ".join(found) if found else ""))


if __name__ == "__main__":
    main()
