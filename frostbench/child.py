"""One measured repetition of a workload, run in a fresh process.

Invoked by ``frostbench/run.py`` as ``python3 -m frostbench.child``
from the repository root with ``src`` on ``PYTHONPATH``; prints one
JSON document as its last line of standard output.
"""

from __future__ import annotations

import argparse
import importlib
import json

from frostbench.common import SCALES

MODULES = {
    "batch-match": "frostbench.batch_match",
    "stream-ingest": "frostbench.stream_ingest",
    "explore-serve": "frostbench.explore_serve",
}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(MODULES), required=True)
    parser.add_argument(
        "--mode", choices=("measure", "trace", "replay", "replay-trace"),
        required=True,
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    module = importlib.import_module(MODULES[args.workload])
    sizes = SCALES[args.scale]
    if args.mode == "measure":
        result = module.measure(args.seed, sizes, args.workdir)
    elif args.mode == "trace":
        result = module.trace(args.seed, sizes, args.workdir)
    else:
        result = module.replay(
            args.seed, sizes, args.workdir, traced=args.mode == "replay-trace"
        )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
