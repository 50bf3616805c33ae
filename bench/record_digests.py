#!/usr/bin/env python3
"""Record the SHA-256 digest of every workload output into bench/digests.json.

    python3 bench/record_digests.py --seeds 42,0,1,2,3,1234567

Run it only on a commit whose outputs are known to be right: bench/run.py
fails every later job whose outputs differ from the digests recorded for its
workload and seed.  Each job runs twice and must give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--seeds", default="42,0,1,2,3,1234567")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    try:
        cli = run.load_program()
    except run.BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    table: dict[str, dict[str, dict[str, str]]] = {}
    for name, w in run.WORKLOADS.items():
        for seed in seeds:
            doc, cfg, out = run.prepare(name, seed)
            first = None
            for _ in range(2):
                _, error = run.run_job(cli.main, w, cfg, out)
                if error is None:
                    error, digests = run.verify(w, out, doc, first)
                if error is not None:
                    print(f"error: {name} seed {seed}: {error}", file=sys.stderr)
                    return 1
                first = digests
            table.setdefault(name, {})[str(seed)] = digests
            print(f"{name} seed {seed}: {len(digests)} files", file=sys.stderr)
    (run.BENCH / "digests.json").write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
