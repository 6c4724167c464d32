"""Record the digests that run.py checks every output against.

    python3 tmbench/record.py

Writes ``tmbench/digests.json``: for every workload and input variant,
the SHA-256 of each generated source and of each pipeline output. Run
it only on a commit whose outputs are the reference; a later change
that alters any output byte then shows as a failed operation.
"""

from __future__ import annotations

import json
import sys

import gen
import run


def main() -> int:
    run._import_tmkit()
    digests: dict[str, dict] = {}
    for workload in run.WORKLOADS:
        seeds = [0] if workload in gen.SEEDLESS else range(gen.VARIANTS)
        for seed in seeds:
            key = gen.variant_key(workload, seed)
            entry = digests.setdefault(workload, {}).setdefault(key, {})
            for name, text in gen.workload_inputs(workload, seed, run.CORPUS).items():
                clock = run.WallClock()
                first = run.pipeline(name, text, clock).outputs
                if run.pipeline(name, text, clock).outputs != first:
                    print(f"{workload}/{key}/{name}: outputs differ between runs",
                          file=sys.stderr)
                    return 1
                entry[name] = {"source": run.sha(text)}
                entry[name].update({k: run.sha(v) for k, v in first.items()})
            print(f"recorded {workload} {key}", flush=True)
    run.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
