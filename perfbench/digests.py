"""Regenerate ``digests.json``: the digest of every payload the workloads emit.

Run from the repository root after a change that is *meant* to alter
analysis output::

    python3 perfbench/digests.py

It computes every job any workload seed can produce -- the paper-cold batch
with each candidate estimate seed, the sweep-deep budgets, and for
serve-warm the prefilled jobs, every computing request of the mix and the
named-session deepening through an in-process daemon -- checks each payload
against the independent references in ``checks.py``, and refuses to write
digests for output that fails them.  Takes a few minutes.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    from repro.batch.jobs import JobSpec, run_job
    from repro.config import ReproConfig
    from repro.geometry.engine import MeasureEngine
    from repro.service.daemon import AnalysisDaemon

    state = ROOT / ".perfbench_state" / "digests"
    shutil.rmtree(state, ignore_errors=True)
    state.mkdir(parents=True)
    jobs = []  # (prefix, deterministic_dict)

    def batch(mode, **options):
        arguments = argparse.Namespace(store=str(state / mode), trace=False, **options)
        return [tuple(pair) for pair in worker.MODES[mode](arguments)["results"]]

    paper = batch("paper-cold", estimate_seed=0)
    engine = MeasureEngine()
    for seed in range(1, workloads.ESTIMATE_SEEDS):
        (job,) = [
            job for job in workloads.paper_cold_extra_jobs(seed) if job["analysis"] == "estimate"
        ]
        paper.append((None, run_job(JobSpec.from_dict(job), engine).deterministic_dict()))
    jobs += paper
    sweep = batch("sweep-deep")
    jobs += sweep

    session = []

    async def serve_all() -> None:
        daemon = AnalysisDaemon(ReproConfig())
        try:
            for method, params in workloads.prefilled_requests() + workloads.compute_candidates():
                response = await daemon.dispatch(method, dict(params))
                jobs.append((None, response["job"]))
            for depth in workloads.SESSION_DEPTHS:
                session.append(await daemon.dispatch(*workloads.session_request(depth)))
        finally:
            daemon.close()

    asyncio.run(serve_all())

    digests = {checks.digest_id(prefix, job["key"]): checks.digest(job) for prefix, job in jobs}
    for response in session:
        row = checks.session_row(response)
        digests[f"session:{workloads.SESSION_PROGRAM}:{row['depth']}"] = checks.digest(row)

    problems = [problem for prefix, job in jobs for problem in checks.job_problems(job, digests, prefix)]
    for found in checks.monte_carlo_problems([job for _prefix, job in paper]).values():
        problems += found
    for found in checks.budget_problems([job for _prefix, job in sweep]).values():
        problems += found
    problems += [
        problem
        for found in checks.session_problems(workloads.SESSION_PROGRAM, session, digests)
        for problem in found
    ]
    shutil.rmtree(state, ignore_errors=True)
    if problems:
        print("refusing to write digests; reference checks failed:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    with open(checks.DIGEST_FILE, "w") as stream:
        json.dump(dict(sorted(digests.items())), stream, indent=1)
        stream.write("\n")
    print(f"wrote {len(digests)} digests to {checks.DIGEST_FILE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
