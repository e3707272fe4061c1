"""Workload definitions: the ops each workload runs and the inputs they see.

Every op runs in a fresh interpreter (see ``op.py``).  A CLI op is the
argv a user would type after ``mfrelay``; a library op is a function
below that builds its inputs from the workload seed and calls the public
``mfrelay`` API.  Library ops look names up on the ``mfrelay`` module at
call time, so a traced run sees the calls.  A library op's argv is its
name, the seed and any arguments the runner appends (``vector_study``
gets its oracle indices).
"""

from __future__ import annotations

WORKLOADS = {
    # Cold reproduce-the-paper run: import cost plus thousands of scalar
    # calls from cli through asymptotics/rates/outage into numerics.
    "figures": (
        ("fig2", ("cli", "fig2")),
        ("fig3", ("cli", "fig3")),
        ("fig5", ("cli", "fig5")),
        ("sweep", ("cli", "sweep")),
    ),
    # Monte Carlo and chain sampling: mc_outage, channel sampling and the
    # latticesim block loop dominate once the import is paid.
    "sampling": (
        ("fig4_mc", ("cli", "fig4", "--mc-samples", "1000000")),
        ("sweep_mc", ("cli", "sweep", "--mc-samples", "1000000")),
        ("chain", ("cli", "chain")),
        ("scan_scaling", ("scan_scaling",)),
    ),
    # A few huge vectorized calls: numerics throughput and memory, the
    # opposite use of numerics from `figures`.
    "vector_study": (
        ("vector_study", ("vector_study",)),
    ),
}

VECTOR_N = 10**6
# The oracle subsample: the points with the smallest connection outage of
# each scheme (where 1 - exp(-a) x K1(x) cancels most) plus a random spread.
ORACLE_TAIL = 100
ORACLE_RANDOM = 100
SCAN_GRID = (0.55, 0.65, 0.75, 0.85, 0.95)   # centred on the MMSE pair (0.75, 0.75)
SCAN_SYMBOLS = 200_000
SCAN_PS, SCAN_PD, SCAN_GAINS = 1.0, 10.0, (3.0, 3.0)


def op_argv(workload: str, seed: int):
    """[(op name, argv for op.py)] of one pass; the seed is the last argument."""
    out = []
    for name, argv in WORKLOADS[workload]:
        seed_args = ("--seed", str(seed)) if argv[0] == "cli" else (str(seed),)
        out.append((name, list(argv + seed_args)))
    return out


def vector_inputs(seed: int) -> dict:
    """The vector_study operating points and channel draws for a seed.

    ps and pd are log-uniform on [1, 1e12], rd uniform on [0.05, 8],
    rs uniform on [0, rd], sigma2 = 1 and unit-mean exponential gains.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 1])
    n = VECTOR_N
    rd = rng.uniform(0.05, 8.0, n)
    return {
        "ps": 10.0 ** rng.uniform(0.0, 12.0, n),
        "pd": 10.0 ** rng.uniform(0.0, 12.0, n),
        "rd": rd,
        "rs": rd * rng.uniform(0.0, 1.0, n),
        "g1": rng.exponential(1.0, n),
        "g2": rng.exponential(1.0, n),
    }


def oracle_indices(x: dict, seed: int):
    """Sorted indices of the points the mpmath oracle re-evaluates."""
    import numpy as np

    ps, pd, rd = x["ps"], x["pd"], x["rd"]
    a_mf = (2.0 ** (2.0 * rd) - 0.5) / ps
    a_af = (2.0 ** (2.0 * rd) - 1.0) / ps * (2.0 + pd / ps)
    rng = np.random.default_rng([seed, 2])
    return np.unique(np.concatenate([
        np.argpartition(a_mf, ORACLE_TAIL)[:ORACLE_TAIL],
        np.argpartition(a_af, ORACLE_TAIL)[:ORACLE_TAIL],
        rng.choice(VECTOR_N, ORACLE_RANDOM, replace=False)]))


def _summary(values, idx) -> dict:
    # A NaN or an infinity makes the min or the max non-finite.
    return {"min": float(values.min()), "max": float(values.max()),
            "sample": values[idx].tolist()}


def vector_study(mfrelay, seed: int, sample: str) -> dict:
    """``sample`` is the comma-separated ``oracle_indices``: the runner
    selects them, so that the selection stays outside the timed op."""
    idx = [int(i) for i in sample.split(",")]
    x = vector_inputs(seed)
    params = mfrelay.SystemParams(ps=x["ps"], pd=x["pd"], sigma2=1.0)
    p_mf = mfrelay.p_conn_mf(params, x["rd"])
    p_af = mfrelay.p_conn_af(params, x["rd"])
    p_sec = mfrelay.p_secrecy(params, mfrelay.RateConfig(rd=x["rd"], rs=x["rs"]))
    real = mfrelay.ChannelRealization.from_gains(x["g1"], x["g2"])
    gap = mfrelay.rate_report(params, real).gap
    return {"p_conn_mf": _summary(p_mf, idx), "p_conn_af": _summary(p_af, idx),
            "p_secrecy": _summary(p_sec, idx), "gap": _summary(gap, idx)}


def scan_scaling(mfrelay, seed: int) -> dict:
    params = mfrelay.SystemParams(ps=SCAN_PS, pd=SCAN_PD, sigma2=1.0)
    real = mfrelay.ChannelRealization.from_gains(*SCAN_GAINS)
    cfg = mfrelay.LatticeConfig(ps=SCAN_PS, n_symbols=SCAN_SYMBOLS, seed=seed)
    out = mfrelay.scan_scaling(params, real, cfg, SCAN_GRID, SCAN_GRID)
    return {"residual": out.tolist()}


LIBRARY_OPS = {"vector_study": vector_study, "scan_scaling": scan_scaling}
