"""The benchmark's workload definitions and seeded input generation.

Everything here is plain data: the parent process builds the inputs from the
workload seed without importing the program, and hands them to the program as
job dictionaries (``{"program", "analysis", "params"}``) or daemon requests.
"""

from __future__ import annotations

import random
from typing import List, Tuple

# The rows of the paper's Table 1 and Table 2 (names in the program library).
TABLE1 = (
    "geo(1/2)",
    "geo(1/5)",
    "1dRW(1/2,1)",
    "1dRW(7/10,1)",
    "gr",
    "ex1.1(1/2)",
    "ex1.1(1/4)",
    "3print(3/4)",
    "bin(1/2,2)",
    "pedestrian",
)
TABLE2 = (
    "ex1.1-(1)(1/2)",
    "ex1.1-(2)(1/2)",
    "3print(2/3)",
    "ex5.1(0.6)",
    "ex5.15(0.65)",
)

# -- paper-cold ----------------------------------------------------------------

# The Monte Carlo estimate's seed is one of this many candidates, drawn from
# the workload seed, so every payload the workload can produce has a
# committed digest.  Every round of a run uses the same estimate seed, so
# the rounds of a run repeat the same work.  Across workload seeds the
# estimate's duration varies (a non-terminating run costs the full
# max_steps).
ESTIMATE_SEEDS = 16


def estimate_seed(workload_seed: int) -> int:
    return random.Random(f"paper-cold:{workload_seed}").randrange(ESTIMATE_SEEDS)


def paper_cold_extra_jobs(seed_for_estimate: int) -> List[dict]:
    """The jobs appended to suite ``all`` (Table 1 at depth 50, Table 2, classify)."""
    return [
        {
            "program": "gr",
            "analysis": "lower-bound-schedule",
            "params": {"schedule": list(range(34, 44))},
        },
        {
            "program": "sig-branch3(3/5,pad=60)",
            "analysis": "lower-bound-schedule",
            # Ending the schedule at 780 (108k steps, 10-15 s) would leave room
            # for one round per run; ending at 650 (28k steps, about 2 s) keeps
            # rounds short enough that a run takes the median of several.
            "params": {"schedule": [260, 520, 650]},
        },
        {
            "program": "gr",
            "analysis": "estimate",
            "params": {"runs": 200, "max_steps": 500, "seed": seed_for_estimate},
        },
    ]


# -- sweep-deep ----------------------------------------------------------------

SWEEP_PROGRAMS = ("sig-retry(7/10)", "square-retry(1/2)", "sig-sum-retry(1)", "sig-branch(3/5)")
SWEEP_DEPTH = 40
SWEEP_BUDGETS = (18, 22, 26, 28)


def sweep_jobs() -> List[dict]:
    return [
        {"program": name, "analysis": "lower-bound", "params": {"depth": SWEEP_DEPTH}}
        for name in SWEEP_PROGRAMS
    ]


# -- serve-warm ----------------------------------------------------------------

CONNECTIONS = 2
# About 13 of a daemon's replies are slow (the computes and the hits queued
# behind them).  With 100 hits they are a tenth of the 125 requests, so p95
# falls inside them; with 215 hits they were 5 % and p95 sat on the edge
# between slow and fast replies, jumping between about 22 and 100 ms.
HIT_REQUESTS = 100
SESSION_NAME = "bench-gr"
SESSION_PROGRAM = "gr"
SESSION_DEPTHS = (10, 20, 30, 40, 50)
# New parameters for the prefilled programs: these miss the store, compute on
# the engine thread and write the result back.  The depths stay close to the
# prefilled 50 so that the seed moves the compute cost of a lifecycle little.
LOWER_BOUND_DEPTHS = (48, 49, 51, 52)
VERIFY_STEPS = (4_000, 4_500, 5_500, 6_000)
CLASSIFY_STEPS = (1_500, 1_800, 2_200, 2_500)


def prefilled_requests() -> List[Tuple[str, dict]]:
    """Daemon requests equal to the jobs of suite ``all`` (the prefilled store)."""
    requests = [
        ("lower-bound", {"program": name, "depth": 50, "max_paths": 100_000})
        for name in TABLE1
    ]
    requests += [("verify", {"program": name, "max_steps": 5_000}) for name in TABLE2]
    requests += [("classify", {"program": name, "max_steps": 2_000}) for name in TABLE2]
    return requests


def compute_candidates() -> List[Tuple[str, dict]]:
    """Every computing request the mix can draw (each has a committed digest)."""
    requests = [
        ("lower-bound", {"program": name, "depth": depth, "max_paths": 100_000})
        for name in TABLE1
        for depth in LOWER_BOUND_DEPTHS
    ]
    requests += [
        ("verify", {"program": name, "max_steps": steps})
        for name in TABLE2
        for steps in VERIFY_STEPS
    ]
    requests += [
        ("classify", {"program": name, "max_steps": steps})
        for name in TABLE2
        for steps in CLASSIFY_STEPS
    ]
    return requests


def session_request(depth: int) -> Tuple[str, dict]:
    return (
        "lower-bound",
        {"program": SESSION_PROGRAM, "session": SESSION_NAME, "depth": depth},
    )


def serve_mix(workload_seed: int, lifecycle: int) -> List[List[Tuple[str, dict]]]:
    """One daemon lifecycle's requests, split over the closed-loop connections.

    Per lifecycle: one new lower-bound depth per Table 1 program, one new
    verify and one new classify budget per Table 2 program (20 computations),
    the named-session deepening of ``gr`` and ``HIT_REQUESTS`` repeats of
    prefilled jobs.  The session requests all go to connection 0 in
    increasing depth order, since a session's budgets must not decrease.
    """
    rng = random.Random(f"serve-warm:{workload_seed}:{lifecycle}")
    requests = [
        ("lower-bound", {"program": name, "depth": rng.choice(LOWER_BOUND_DEPTHS), "max_paths": 100_000})
        for name in TABLE1
    ]
    requests += [("verify", {"program": name, "max_steps": rng.choice(VERIFY_STEPS)}) for name in TABLE2]
    requests += [("classify", {"program": name, "max_steps": rng.choice(CLASSIFY_STEPS)}) for name in TABLE2]
    prefilled = prefilled_requests()
    requests += [rng.choice(prefilled) for _ in range(HIT_REQUESTS)]
    rng.shuffle(requests)
    lanes: List[List[Tuple[str, dict]]] = [requests[index::CONNECTIONS] for index in range(CONNECTIONS)]
    positions = sorted(rng.sample(range(len(lanes[0]) + len(SESSION_DEPTHS)), len(SESSION_DEPTHS)))
    for position, depth in zip(positions, SESSION_DEPTHS):
        lanes[0].insert(position, session_request(depth))
    return lanes
