"""Output checks: independent references first, then committed digests.

An operation (a batch job, a daemon request) counts as failed when any check
below reports a problem for it:

* Table 2: ``verify`` must succeed with exactly the paper's ``Papprox``
  distribution, and ``classify`` must report AST;
* every lower bound lies in ``[0, Pterm]`` for the program's known
  termination probability;
* anytime trajectories (depth schedules, sweep budgets, a session's
  deepening) never decrease;
* the ``gr`` lower bounds stay below the seeded Monte Carlo estimate plus a
  Hoeffding margin;
* the deterministic payload (``JobResult.deterministic_dict``, the daemon's
  ``job`` field, a session's bound row) hashes to its committed digest in
  ``digests.json``.  ``digests.py`` regenerates that file.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List, Optional

DIGEST_FILE = Path(__file__).resolve().parent / "digests.json"

# Papprox of the Table 2 programs, as printed in the paper.
PAPER_PAPPROX: Dict[str, Dict[int, Fraction]] = {
    "ex1.1-(1)(1/2)": {0: Fraction(1, 2), 1: Fraction(1, 2)},
    "ex1.1-(2)(1/2)": {0: Fraction(1, 2), 2: Fraction(1, 2)},
    "3print(2/3)": {0: Fraction(2, 3), 3: Fraction(1, 3)},
    "ex5.1(0.6)": {0: Fraction(3, 5), 2: Fraction(1, 5), 3: Fraction(1, 5)},
    "ex5.15(0.65)": {0: Fraction(13, 20), 2: Fraction(49, 800), 3: Fraction(231, 800)},
}

# Termination probabilities.  Closed forms where the program has one (almost
# sure termination, the golden-ratio walk, the printer's 1/3); the two sigmoid
# branching programs use the least fixpoint of their branching equation.
PTERM: Dict[str, float] = {
    "geo(1/2)": 1.0,
    "geo(1/5)": 1.0,
    "1dRW(1/2,1)": 1.0,
    "1dRW(7/10,1)": 1.0,
    "gr": (math.sqrt(5) - 1) / 2,
    "ex1.1(1/2)": 1.0,
    "ex1.1(1/4)": 1.0 / 3.0,
    "3print(3/4)": 1.0,
    "bin(1/2,2)": 1.0,
    "pedestrian": 1.0,
    "sig-retry(7/10)": 1.0,
    "square-retry(1/2)": 1.0,
    "sig-sum-retry(1)": 1.0,
    "sig-branch(3/5)": 0.6819870686108206,
    "sig-branch3(3/5,pad=60)": 0.46539477345323377,
}
TOLERANCE = 1e-9
HOEFFDING_DELTA = 1e-6

SESSION_FIELDS = (
    "depth",
    "probability",
    "expected_steps",
    "measure_gap",
    "anytime_gap",
    "path_count",
    "exhaustive",
    "exact_measures",
)


def digest(document) -> str:
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_id(prefix: Optional[str], key: str) -> str:
    return f"{prefix}:{key}" if prefix else key


def load_digests() -> Dict[str, str]:
    with open(DIGEST_FILE) as stream:
        return json.load(stream)


def number(encoded) -> float:
    if isinstance(encoded, str):
        return float(Fraction(encoded))
    return float(encoded)


def parse_counting_distribution(text: str) -> Dict[int, Fraction]:
    """``CountingDistribution(1/2*d0 + 1/2*d1)`` -> ``{0: 1/2, 1: 1/2}``."""
    match = re.fullmatch(r"CountingDistribution\((.*)\)", text or "")
    if not match:
        return {}
    terms = {}
    for term in match.group(1).split(" + "):
        coefficient, _, count = term.partition("*d")
        terms[int(count)] = Fraction(coefficient)
    return terms


def _bound_problems(program: str, probability) -> List[str]:
    value = number(probability)
    limit = PTERM.get(program, 1.0)
    if not 0.0 <= value <= limit + TOLERANCE:
        return [f"{program}: lower bound {value} outside [0, {limit}]"]
    return []


def _monotone_problems(label: str, values: Iterable[float]) -> List[str]:
    values = list(values)
    if any(later < earlier for earlier, later in zip(values, values[1:])):
        return [f"{label}: anytime bounds decrease: {values}"]
    return []


def job_problems(job: dict, digests: Dict[str, str], prefix: Optional[str] = None) -> List[str]:
    """Problems with one ``JobResult.deterministic_dict`` (empty when correct)."""
    spec = job.get("spec", {})
    program, analysis = spec.get("program"), spec.get("analysis")
    label = f"{analysis} {program}"
    if job.get("status") != "ok":
        return [f"{label}: {job.get('error')}"]
    problems = []
    expected = digests.get(digest_id(prefix, job.get("key", "")))
    if expected is None:
        problems.append(f"{label}: no committed digest")
    elif expected != digest(job):
        problems.append(f"{label}: payload digest differs from the committed one")
    result = job.get("result") or {}
    if analysis == "lower-bound":
        problems += _bound_problems(program, result["probability"])
    elif analysis == "lower-bound-schedule":
        trajectory = result["trajectory"]
        problems += _monotone_problems(label, (number(row["probability"]) for row in trajectory))
        problems += _monotone_problems(label + " depths", (row["depth"] for row in trajectory))
        problems += _bound_problems(program, result["probability"])
    elif analysis == "verify":
        if not result.get("verified"):
            problems.append(f"{label}: not verified AST")
        paper = PAPER_PAPPROX.get(program)
        if paper is not None and parse_counting_distribution(result.get("papprox")) != paper:
            problems.append(f"{label}: Papprox {result.get('papprox')} is not the paper's")
    elif analysis == "classify":
        if not result.get("ast_verified"):
            problems.append(f"{label}: not verified AST")
    elif analysis == "estimate":
        if not 0.0 <= result["probability"] <= 1.0 or result["runs"] != spec["params"]["runs"]:
            problems.append(f"{label}: malformed estimate {result}")
    return problems


def session_row(response: dict) -> dict:
    return {field: response.get(field) for field in SESSION_FIELDS}


def session_problems(
    program: str, responses: List[dict], digests: Dict[str, str]
) -> List[List[str]]:
    """Per-response problems of one named session's deepening, in order."""
    problems = []
    previous = -1.0
    for response in responses:
        row = session_row(response)
        found = []
        expected = digests.get(f"session:{program}:{row['depth']}")
        if expected is None:
            found.append(f"session {program} depth {row['depth']}: no committed digest")
        elif expected != digest(row):
            found.append(f"session {program} depth {row['depth']}: digest differs")
        value = number(row["probability"])
        if value < previous:
            found.append(f"session {program}: bound decreased at depth {row['depth']}")
        previous = value
        found += _bound_problems(program, row["probability"])
        problems.append(found)
    return problems


def hoeffding_margin(runs: int, delta: float = HOEFFDING_DELTA) -> float:
    return math.sqrt(math.log(2.0 / delta) / (2.0 * runs))


def monte_carlo_problems(jobs: List[dict]) -> Dict[int, List[str]]:
    """Every ``gr`` lower bound <= each seeded ``gr`` estimate + Hoeffding margin.

    Problems are reported against the index of the estimate job.
    """
    bounds = [
        number(job["result"]["probability"])
        for job in jobs
        if job.get("status") == "ok"
        and job["spec"]["program"] == "gr"
        and job["spec"]["analysis"] in ("lower-bound", "lower-bound-schedule")
    ]
    problems: Dict[int, List[str]] = {}
    for index, job in enumerate(jobs):
        spec, result = job.get("spec", {}), job.get("result") or {}
        if spec.get("program") != "gr" or spec.get("analysis") != "estimate" or not result:
            continue
        ceiling = result["probability"] + hoeffding_margin(result["runs"])
        found = [f"gr: lower bound {bound} above Monte Carlo {result['probability']} + margin" for bound in bounds if bound > ceiling]
        if found:
            problems[index] = found
    return problems


def budget_problems(jobs: List[dict]) -> Dict[int, List[str]]:
    """Per program, bounds never decrease as the sweep budget grows.

    ``jobs`` are in budget order; a decrease is reported against the job
    whose bound is lower than the same program's previous one.
    """
    previous: Dict[str, float] = {}
    problems: Dict[int, List[str]] = {}
    for index, job in enumerate(jobs):
        if job.get("status") != "ok":
            continue
        program = job["spec"]["program"]
        value = number(job["result"]["probability"])
        if value < previous.get(program, 0.0):
            problems[index] = [f"{program}: bound decreased with a larger sweep budget"]
        previous[program] = value
    return problems
