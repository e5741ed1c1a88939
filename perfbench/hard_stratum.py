"""Cost and outcome of prob-sweep's hard stratum, measured on its own.

    python3 perfbench/hard_stratum.py --seed 1 --count 8

The stratum q = d - 1, d >= 150, v >= 7 holds calls that run for tens of
seconds or raise QuadratureError at the seed.  It is about one
configuration in a thousand of the prob-sweep domain, so the fixed
operation list of a prob-sweep run does not reach it, and a workload on
which operations fail cannot be a benchmark workload.  This script draws
--count configurations from the stratum, runs each through
``intersection_probability`` under the benchmark's latency limit and
checks it like run.py does.  It prints one JSON line per configuration and
a summary line, and exits with code 0 whatever the outcomes.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=8)
    args = p.parse_args(argv)
    if not (run.SRC / "hypflats" / "__init__.py").is_file():
        print(f"error: no library source at {run.SRC / 'hypflats'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(run.SRC), str(run.ROOT / "tests")]
    import hypflats
    import oracles

    refs = workloads.references("prob-sweep", oracles)
    ctx = workloads.Context(hypflats, 1, str(run.ROOT))
    records = []
    for op in workloads.hard_stratum(args.seed, args.count):
        r = run.run_op(op, ctx, refs)
        records.append(r)
        print(json.dumps({**op.describe(), "cpu_s": round(r.cpu, 3),
                          "wall_s": round(r.wall, 3), "failed": r.reason}), flush=True)
    print(json.dumps({"seed": args.seed, "attempted": len(records),
                      "failed": sum(r.reason is not None for r in records),
                      "cpu_s": sum(r.cpu for r in records),
                      "latency_limit_s": run.LATENCY_LIMIT_S}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
