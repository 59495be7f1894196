"""The benchmark program library: every term used in the paper's evaluation.

Each entry is a :class:`~repro.programs.library.Program` bundling the
recursive function (a ``Fix`` term), the applied closed program, the expected
probability of termination where the paper states it, and the evaluation
strategy under which the paper analyses it.  :mod:`repro.programs.extra`
adds programs the paper only discusses in the text (Ex. 3.5, Ex. B.4, von
Neumann's coin, score-conditioned and nested variants).
"""

from repro.programs.library import (
    Program,
    bin_walk,
    geometric,
    golden_ratio,
    one_dim_random_walk,
    pedestrian,
    printer_affine,
    printer_nonaffine,
    running_example,
    running_example_first_class,
    table1_programs,
    table2_programs,
    three_print,
)
from repro.programs.extra import (
    anytime_programs,
    conditional_single_sample,
    deep_schedule_programs,
    exponential_step_walk,
    extra_programs,
    nested_recursion,
    nonaffine_programs,
    score_gated_printer,
    sigmoid_branching,
    sigmoid_tri_branching,
    sigmoid_retry,
    sigmoid_sum_retry,
    square_retry,
    two_sample_sum,
    von_neumann_coin,
)

import functools


@functools.lru_cache(maxsize=1)
def _library():
    programs = {}
    programs.update(table1_programs())
    for name, program in table2_programs().items():
        programs.setdefault(name, program)
    for name, program in extra_programs().items():
        programs.setdefault(name, program)
    # The anytime-schedule workloads are resolvable by name but
    # deliberately outside the registries that define the committed BENCH_*
    # baselines.
    for name, program in anytime_programs().items():
        programs.setdefault(name, program)
    for name, program in deep_schedule_programs().items():
        programs.setdefault(name, program)
    return programs


def all_programs():
    """Every library program, keyed by name (Table 1 entries win on clashes)."""
    return dict(_library())


@functools.lru_cache(maxsize=256)
def resolve_program(source: str) -> Program:
    """Resolve a program reference: a library name or surface syntax.

    This is the single resolution rule shared by the CLI and the batch
    runner, so a job file and a command line mean the same thing by the
    same string.  Cached: programs are immutable, and batch key hashing
    resolves the same reference repeatedly.
    """
    from repro.spcf.parser import parse
    from repro.spcf.syntax import Fix, subterms

    programs = _library()
    if source in programs:
        return programs[source]
    term = parse(source)
    fix = term if isinstance(term, Fix) else next(
        (sub for sub in subterms(term) if isinstance(sub, Fix)), None
    )
    return Program(
        name="<command line>",
        fix=fix if isinstance(fix, Fix) else Fix("phi", "x", term),
        applied=term,
        description="program supplied on the command line",
    )


__all__ = [
    "Program",
    "all_programs",
    "resolve_program",
    "anytime_programs",
    "bin_walk",
    "conditional_single_sample",
    "deep_schedule_programs",
    "exponential_step_walk",
    "extra_programs",
    "geometric",
    "golden_ratio",
    "nested_recursion",
    "nonaffine_programs",
    "one_dim_random_walk",
    "pedestrian",
    "printer_affine",
    "printer_nonaffine",
    "running_example",
    "running_example_first_class",
    "score_gated_printer",
    "sigmoid_branching",
    "sigmoid_retry",
    "sigmoid_tri_branching",
    "sigmoid_sum_retry",
    "square_retry",
    "table1_programs",
    "table2_programs",
    "three_print",
    "two_sample_sum",
    "von_neumann_coin",
]
