"""Output checks for every op, and the mpmath oracle behind
``closed_form_digits``.

Each check returns a list of problems; an op with any problem counts as
failed.  The checks hold for any workload seed:

* closed-form CSV cells match the reference recorded in ``reference/``
  within REL_TOL/ABS_TOL (not byte for byte, so a fix of the cancellation
  in the connection-outage forms or a -0 -> 0 normalisation still passes);
* each Monte Carlo cell lies within MC_K standard errors of its row's
  closed form (the total-outage estimate within the closed-form bounds);
* chain rows meet the acceptance bounds: relay power within 1% of ps and
  linear residual within 2% of the analytic equivalent noise;
* scan_scaling residuals lie within 2% of the analytic residual and the
  minimum sits at the MMSE pair;
* vector_study outputs are finite probabilities, rate_report gaps lie in
  [0, 1/2], and the oracle subsample agrees to MIN_DIGITS digits.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

import workloads

REL_TOL = 1e-4
ABS_TOL = 1e-6
MC_K = 6.0
MIN_DIGITS = 2.0
MAX_DIGITS = 17.0
ORACLE_DPS = 40
CHAIN_POWER_TOL = 0.01
CHAIN_RESIDUAL_TOL = 0.02
SCAN_TOL = 0.02
GAP_SLACK = 1e-12   # rounding of u - rs in rate_report near the [0, 1/2] ends
CHAIN_MEASURED = ("relay_power", "residual_var", "folded_var", "uniformity_pvalue")


@dataclass
class Table:
    config: dict
    header: list
    rows: list          # cells as the CSV text

    def column(self, name):
        i = self.header.index(name)
        return [float(r[i]) for r in self.rows]


def parse_csv(text: str) -> Table:
    config, body = {}, []
    for line in text.splitlines():
        if line.startswith("# config: "):
            config = json.loads(line[len("# config: "):])
        elif not line.startswith("#"):
            body.append(line.split(","))
    if not body:
        raise ValueError("no CSV header")
    return Table(config=config, header=body[0], rows=body[1:])


def seed_independent(column: str) -> bool:
    """Whether a CSV column is a closed form (the same for every seed)."""
    return not (column.endswith("_mc") or column.startswith("se_") or column in CHAIN_MEASURED)


def reference_text(table: Table, columns) -> str:
    """The given columns of a table as CSV text, in the reference format."""
    idx = [table.header.index(c) for c in columns]
    lines = [",".join(columns)] + [",".join(r[i] for i in idx) for r in table.rows]
    return "\n".join(lines) + "\n"


def check_reference(table: Table, ref_text: str):
    """(problems, byte-identical) of a table against its reference."""
    ref = parse_csv(ref_text)
    missing = [c for c in ref.header if c not in table.header]
    if missing:
        return [f"missing columns {missing}"], False
    if len(table.rows) != len(ref.rows):
        return [f"{len(table.rows)} rows, reference has {len(ref.rows)}"], False
    problems = []
    for col in ref.header:
        for i, (got, want) in enumerate(zip(table.column(col), ref.column(col))):
            if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                problems.append(f"{col}[{i}] = {got!r}, reference {want!r}")
    return problems, reference_text(table, ref.header) == ref_text


def _mc_tol(p: float, n: int) -> float:
    # binomial standard error, floored at one hit so p ~ 0 or 1 stays fair
    return MC_K * math.sqrt(max(p * (1.0 - p), 1.0 / n) / n)


def check_mc(table: Table):
    n = int(table.config["mc_samples"])
    problems = []
    for col in table.header:
        if not (col.startswith("p_") and col.endswith("_mc")):
            continue
        if col == "p_total_mf_mc":
            lo, hi = table.column("p_total_lower"), table.column("p_total_upper")
        else:
            lo = hi = table.column(col[:-3])
        for i, (p, a, b) in enumerate(zip(table.column(col), lo, hi)):
            if not (a - _mc_tol(a, n) <= p <= b + _mc_tol(b, n)):
                problems.append(f"{col}[{i}] = {p} outside [{a}, {b}] +- {MC_K} se")
    return problems


def check_chain(table: Table):
    problems = []
    cols = zip(table.column("ps"), table.column("relay_power"), table.column("residual_var"),
               table.column("analytic_sigma_e2"), table.column("uniformity_pvalue"))
    for i, (ps, power, resid, analytic, pvalue) in enumerate(cols):
        if abs(power - ps) > CHAIN_POWER_TOL * ps:
            problems.append(f"row {i}: relay power {power} not within 1% of ps {ps}")
        if abs(resid - analytic) > CHAIN_RESIDUAL_TOL * analytic:
            problems.append(f"row {i}: residual {resid} not within 2% of {analytic}")
        if not 0.0 <= pvalue <= 1.0:
            problems.append(f"row {i}: p-value {pvalue} outside [0, 1]")
    return problems


def check_scan(result: dict):
    grid = workloads.SCAN_GRID
    g1, g2 = workloads.SCAN_GAINS
    ps = workloads.SCAN_PS
    res = result["residual"]
    problems = []
    best = min((v, i, j) for i, row in enumerate(res) for j, v in enumerate(row))
    for i, a in enumerate(grid):
        for j, b in enumerate(grid):
            want = (1 - a) ** 2 * ps + (1 - b) ** 2 * ps + a * a / g2 + b * b / g1
            if abs(res[i][j] - want) > SCAN_TOL * want:
                problems.append(f"residual[{i}][{j}] = {res[i][j]}, analytic {want}")
    centre = len(grid) // 2
    if best[1:] != (centre, centre):
        problems.append(f"residual minimum at {best[1:]}, not at the MMSE pair")
    return problems


@lru_cache(maxsize=None)
def oracle(kind: str, ps, pd, sigma2, eps1, eps2, rd, rs=0.0):
    """The closed form of ``kind`` (mf, af or secrecy) at ORACLE_DPS digits."""
    with mp.workdps(ORACLE_DPS):
        ps, pd, s2, e1, e2, rd, rs = map(mp.mpf, (ps, pd, sigma2, eps1, eps2, rd, rs))
        if kind == "secrecy":
            gs = mp.power(2, 2 * (rd - rs)) - 1
            return ps * e1 / (ps * e1 + pd * e2 * gs) * mp.exp(-gs * s2 / (ps * e1))
        if kind == "mf":
            g = mp.power(2, 2 * rd) - mp.mpf("0.5")
            a = (1 / e1 + 1 / e2) * g * s2 / ps
            x = 2 * g * s2 / (ps * mp.sqrt(e1 * e2))
        else:
            g = mp.power(2, 2 * rd) - 1
            ratio = (ps + pd) / ps
            a = (g * s2 / ps) * (ratio / e1 + 1 / e2)
            x = (2 * g * s2 / ps) * mp.sqrt((ratio + 1 / g) / (e1 * e2))
        return 1 - mp.exp(-a) * x * mp.besselk(1, x)


def digits(value: float, exact) -> float:
    """-log10 of the relative error, capped at MAX_DIGITS."""
    err = abs(mp.mpf(value) - exact)
    if err == 0 or (abs(value) < sys.float_info.min and abs(exact) < sys.float_info.min):
        return MAX_DIGITS   # exact, or both below the normal double range
    rel = float(err / abs(exact)) if exact != 0 else math.inf
    return min(MAX_DIGITS, -math.log10(rel))


def table_digits(table: Table):
    """Min digits of the p_conn_mf/p_conn_af cells of a table, or None."""
    cfg, axis = table.config, table.header[0]
    out = []
    for kind in ("mf", "af"):
        col = f"p_conn_{kind}"
        if col not in table.header:
            continue
        for row, value in zip(table.column(axis), table.column(col)):
            p = {k: float(cfg[k]) for k in ("ps", "pd", "sigma2", "eps1", "eps2", "rd")}
            if axis in p:
                p[axis] = row
            out.append(digits(value, oracle(kind, **p)))
    return min(out) if out else None


def check_vector(result: dict, x: dict, idx):
    """(problems, closed_form_digits) of one vector_study result.

    ``x`` and ``idx`` are the inputs and oracle indices, regenerated from
    the seed on the checking side.
    """
    problems = []
    for name in ("p_conn_mf", "p_conn_af", "p_secrecy"):
        s = result[name]
        if not (0.0 <= s["min"] and s["max"] <= 1.0):      # false on NaN too
            problems.append(f"{name}: range [{s['min']}, {s['max']}] not within [0, 1]")
    gap = result["gap"]
    if not (-GAP_SLACK <= gap["min"] and gap["max"] <= 0.5 + GAP_SLACK):
        problems.append(f"rate_report gap outside [0, 1/2]: [{gap['min']}, {gap['max']}]")
    conn = []
    for name, kind in (("p_conn_mf", "mf"), ("p_conn_af", "af"), ("p_secrecy", "secrecy")):
        for i, value in zip(idx, result[name]["sample"]):
            d = digits(value, oracle(kind, x["ps"][i], x["pd"][i], 1.0, 1.0, 1.0,
                                     x["rd"][i], x["rs"][i]))
            if d < MIN_DIGITS:
                problems.append(f"{name}[{i}] = {value!r} has {d:.2f} correct digits")
            if kind != "secrecy":
                conn.append(d)
    return problems, min(conn)
