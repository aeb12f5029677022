"""Record the exact integers of every workload at seed 0 into reference.json.

Usage, from the root of a checkout:  python3 perfbench/record_reference.py

run.py compares seed-0 runs against this file: per-T density counts, the
random experiment's totals, and the CRT hole's N, x0 and subspace translate.
Re-record only when a change is meant to alter those integers, and say so.
"""

import json
import shutil

import run


def main():
    env = run.worker_env()
    reference = {}
    for workload in run.WORKLOADS:
        run_dir = run.WORK / f"reference-{workload}"
        try:
            spec = run.make_spec(workload, 0, "full", run_dir)
            it = run.run_iteration(spec, False, run_dir / "it0", env)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        if it["failed"]:
            raise SystemExit(f"{workload}: checks failed: {it['failures']}")
        reference[workload] = {k: v for k, v in it["values"].items() if v}
        print(workload, json.dumps(reference[workload])[:200])
    lines = [f" {json.dumps(k)}: {json.dumps(v)}"
             for k, v in reference.items()]
    (run.HERE / "reference.json").write_text(
        "{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
