"""Regenerate references.json: the outputs every benchmark operation must give.

    python3 perfbench/make_references.py

Runs each pooled input once at full size, untimed, and pins what the
checks compare: per-episode mean rewards of every training seed and the
summary row of every evaluation cell. Rerun it only when a change to the
program is meant to change these outputs, and say so in that change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

if __name__ == "__main__":
    run.import_program()
    from workloads import EVAL_POOL, FULL, TRAIN_POOL, make

    refs = {}
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="refs-", dir=run.OUT))
    try:
        for name, pool in (("train_hg", TRAIN_POOL), ("eval_sweep", EVAL_POOL)):
            workload = make(name, FULL, None)
            workload.setup(work)
            seeds = {}
            for k in range(pool):
                op = workload.run_op(0, k, work / f"{name}{k}")
                if op.failed:
                    sys.exit(f"{name} seed {op.outputs.get('seed')}: {op.problems}")
                out = op.outputs
                seeds[str(out["seed"])] = out.get("mean_reward", out.get("rows"))
                print(name, out["seed"], flush=True)
            refs[name] = {"horizon_s": FULL.horizon_s, "seeds": seeds}
            if name.startswith("train"):
                refs[name]["episodes"] = FULL.episodes
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")
