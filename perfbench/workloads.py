"""Seeded config generation for the four benchmark workloads.

Each workload is a list of ``phaselab run`` configs.  The seed changes the
values the program sees (experiment seeds, hence sampled matrices, symbols
and Monte Carlo draws, and the oracle workload's nu values), never the
sizes, so the cost of a round does not depend on the seed.

Standard library only: config generation does not depend on the numpy
version.
"""

from __future__ import annotations

import random

WORKLOADS = ("pathint", "oracle", "landau", "battery")

# A round takes 0.5-3.5 s on a 2-core host, so a 15 s run holds five or
# more of them and reports their median.
# Path-integral Monte Carlo: 6 estimates of PATHINT_SAMPLES loops.  At the
# checked-in 256 steps the program's refinement oracle at 512 steps costs
# 1.2 s a round whatever the sample count, a third of a 4 s round; at 128
# steps it costs 0.1 s, so the estimator does most of the work.
PATHINT_STEPS = 128
PATHINT_SAMPLES = 4_000
# Oracle study: dense determinant at 512 steps, the fewest Monte Carlo
# samples the estimator accepts; the "nu" rule, whose row the closed-form
# cross-check reads, and one seeded other rule at one small and one large
# nu, so a round makes 9 dense determinants.
ORACLE_STEPS = 512
ORACLE_RULES = ("nu", "nu_half", "two_nu", "nu_plus_log")
ORACLE_NU_SMALL = (1.0, 2.0)
ORACLE_NU_LARGE = (4.0, 8.0)
# Landau: a 73 x 73 patch at the checked-in spacing; eig_count keeps the
# checked-in ratio of computed levels to the flux count (120 / 81.5).  The
# checked-in 129 x 129 grid takes 27-30 s a round; at 0.5-1 s a round, a
# run holds 13 or more rounds.
LANDAU_GRID = {"half_width": 4.5, "spacing": 0.125, "eig_count": 38}


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31 - 1)


def configs(workload: str, seed: int) -> list[dict]:
    """The configs of one round of ``workload``; the same seed gives the same
    configs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "pathint":
        return [{
            "experiment": "pathint",
            "parameters": {
                "seed": _seed(rng),
                "nu_list": [1, 2, 4],
                "steps": PATHINT_STEPS,
                "samples": PATHINT_SAMPLES,
            },
        }]
    if workload == "oracle":
        # nu jittered by up to 10 %: the law checks hold on the whole range
        nu_list = [round(rng.choice(nus) * rng.uniform(0.9, 1.1), 4)
                   for nus in (ORACLE_NU_SMALL, ORACLE_NU_LARGE)]
        rules = ["nu", rng.choice(ORACLE_RULES[1:])]
        return [{
            "experiment": "calibrate",
            "parameters": {
                "seed": _seed(rng),
                "nu_list": nu_list,
                "rules": rules,
                "steps": ORACLE_STEPS,
                "samples": 1000,
            },
        }]
    if workload == "landau":
        # the seed picks the strong-limit symbol
        return [{"experiment": "landau", "parameters": {**LANDAU_GRID, "seed": _seed(rng)}}]
    if workload == "battery":
        # half the checked-in sample counts (graph-limit: the checked-in
        # ones), so that a round takes 2-3.5 s
        return [
            {"experiment": "membership",
             "parameters": {"seed": _seed(rng), "n_list": [1, 2, 3], "n": 2, "samples": 100}},
            {"experiment": "decompose", "parameters": {"seed": _seed(rng), "n": 2, "samples": 100}},
            {"experiment": "potapov",
             "parameters": {"seed": _seed(rng), "n": 2, "pairs": 50,
                            "contraction_samples": 250, "contraction_n_list": [1, 2]}},
            {"experiment": "graph-limit",
             "parameters": {"seed": _seed(rng), "m": 1, "samples": 50,
                            "nu_list": list(range(4, 17)), "fd_samples": 50}},
            {"experiment": "fock-limit", "parameters": {"seed": _seed(rng), "lemma_samples": 25}},
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def warmup_configs(workload: str) -> list[dict]:
    """Small configs of the same experiments, run once during set-up so that
    lazy imports, LAPACK/ARPACK first calls and caches are paid before
    timing.  The sampling configs keep the timed step counts, so the large
    arrays of a round have been allocated once before it starts."""
    if workload == "pathint":
        return [{"experiment": "pathint",
                 "parameters": {"seed": 1, "nu_list": [1], "steps": PATHINT_STEPS,
                                "samples": PATHINT_SAMPLES}}]
    if workload == "oracle":
        return [{"experiment": "calibrate",
                 "parameters": {"seed": 1, "nu_list": [1], "rules": ["nu"],
                                "steps": ORACLE_STEPS, "samples": 1000}}]
    if workload == "landau":
        return [{"experiment": "landau",
                 "parameters": {"half_width": 2.0, "spacing": 0.125, "eig_count": 8,
                                "strong_limit_nu_list": [2], "strong_limit_half_width": 4.0}}]
    if workload == "battery":
        return [
            {"experiment": "membership", "parameters": {"seed": 1, "samples": 4}},
            {"experiment": "decompose", "parameters": {"seed": 1, "samples": 4}},
            {"experiment": "potapov",
             "parameters": {"seed": 1, "pairs": 2, "contraction_samples": 4}},
            {"experiment": "graph-limit",
             "parameters": {"seed": 1, "samples": 2, "fd_samples": 2}},
            {"experiment": "fock-limit",
             "parameters": {"seed": 1, "lemma_samples": 2, "strong_nu_list": [4],
                            "quad_grid": 100, "tau_list": [4]}},
        ]
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
