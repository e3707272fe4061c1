"""Experiment runner emitting machine-readable CSV tables.

Subcommands reproduce the library's reference figures and run arbitrary
sweeps:

  fig2   secrecy rates versus jamming power (ps tied to sqrt(pd))
  fig3   secure degrees of freedom versus rho, closed form and numeric
  fig4   outage probabilities versus rd, closed form and Monte Carlo
  fig5   secure diversity gain versus rho, closed form and numeric
  sweep  outage closed forms along any parameter axis
  chain  modulo signal-chain validation grid

Configuration comes from JSON (--config) with per-experiment defaults;
flags override file values.  Output is CSV with '#' metadata lines and
12-significant-digit cells; identical (config, seed) pairs produce
byte-identical files.  Exit codes: 0 ok, 2 invalid config (including a
library ValueError raised during the run), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .asymptotics import (Scheme, estimate_gsdof, estimate_gsdg,
                          gsdg_closed_form, gsdof_closed_form)
from .channel import ChannelRealization, RateConfig, SystemParams, thresholds
from .latticesim import LatticeConfig, simulate_chain
from .outage import mc_outage, outage_probs, p_conn_af, p_conn_cutset_lower
from .rates import af_rates, mf_gap, mf_rates, secrecy_upper_bound

EXPERIMENTS = ("fig2", "fig3", "fig4", "fig5", "sweep", "chain")

PARAM_KEYS = ("ps", "pd", "sigma2", "eps1", "eps2", "rd", "rs", "rho")
AXIS_KEYS = ("axis", "axis_min", "axis_max", "axis_points", "axis_scale")
SWEEPABLE = ("ps", "pd", "sigma2", "eps1", "eps2", "rd", "rs")

_DEFAULTS = {
    "ps": 10.0, "pd": 10.0, "sigma2": 1.0, "eps1": 1.0, "eps2": 1.0,
    "rd": 1.0, "rs": 0.5, "rho": None,
    "axis": None, "axis_min": None, "axis_max": None,
    "axis_points": None, "axis_scale": None,
    "mc_samples": 0, "seed": 1234, "out": None,
}

_EXPERIMENT_DEFAULTS = {
    "fig2": {"axis": "pd", "axis_min": 1.0, "axis_max": 1e8,
             "axis_points": 33, "axis_scale": "log"},
    "fig3": {"axis": "rho", "axis_min": 0.0, "axis_max": 3.0,
             "axis_points": 25, "axis_scale": "linear"},
    "fig4": {"axis": "rd", "axis_min": 0.5, "axis_max": 15.0,
             "axis_points": 30, "axis_scale": "linear", "mc_samples": 100000},
    "fig5": {"axis": "rho", "axis_min": 0.0, "axis_max": 3.0,
             "axis_points": 25, "axis_scale": "linear"},
    "sweep": {"axis": "ps", "axis_min": 1.0, "axis_max": 1e4,
              "axis_points": 25, "axis_scale": "log"},
    "chain": {"ps": 1.0, "mc_samples": 1000000},
}


class ConfigError(Exception):
    pass


def load_config(experiment: str, config_path: str | None, overrides: dict) -> dict:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    cfg = dict(_DEFAULTS)
    cfg.update(_EXPERIMENT_DEFAULTS.get(experiment, {}))
    cfg["experiment"] = experiment
    if config_path is not None:
        try:
            with open(config_path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config JSON must be an object")
        unknown = set(data) - set(_DEFAULTS) - {"experiment"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        file_experiment = data.pop("experiment", experiment)
        if file_experiment != experiment:
            raise ConfigError(
                f"config file is for {file_experiment!r}, not {experiment!r}")
        cfg.update(data)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    _validate(cfg)
    return cfg


def _validate(cfg: dict):
    try:
        SystemParams(ps=float(cfg["ps"]), pd=float(cfg["pd"]), sigma2=float(cfg["sigma2"]),
                     eps1=float(cfg["eps1"]), eps2=float(cfg["eps2"]))
        RateConfig(rd=float(cfg["rd"]), rs=float(cfg["rs"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if cfg["mc_samples"] is not None and int(cfg["mc_samples"]) < 0:
        raise ConfigError("mc_samples must be >= 0")
    if cfg.get("axis") is not None:
        if cfg["axis"] not in SWEEPABLE + ("rho",):
            raise ConfigError(f"axis must be one of {SWEEPABLE + ('rho',)}")
        lo, hi = float(cfg["axis_min"]), float(cfg["axis_max"])
        pts = int(cfg["axis_points"])
        if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
            raise ConfigError("sweep bounds must be finite with min <= max")
        if pts < 1:
            raise ConfigError("axis_points must be >= 1")
        if cfg["axis_scale"] not in ("linear", "log"):
            raise ConfigError("axis_scale must be 'linear' or 'log'")
        if cfg["axis_scale"] == "log" and lo <= 0:
            raise ConfigError("log-scaled axis needs positive bounds")
    if cfg.get("rho") is not None and float(cfg["rho"]) < 0:
        raise ConfigError("rho must be nonnegative")


def _axis_values(cfg: dict) -> np.ndarray:
    lo, hi, pts = float(cfg["axis_min"]), float(cfg["axis_max"]), int(cfg["axis_points"])
    if pts == 1:
        return np.array([lo])
    if cfg["axis_scale"] == "log":
        return np.logspace(np.log10(lo), np.log10(hi), pts)
    return np.linspace(lo, hi, pts)


def _row_params(cfg: dict, axis: str | None = None, value: float | None = None) -> SystemParams:
    fields = {k: float(cfg[k]) for k in ("ps", "pd", "sigma2", "eps1", "eps2")}
    if axis in fields:
        fields[axis] = float(value)
    if cfg.get("rho") is not None and axis != "pd":
        snr = fields["ps"] / fields["sigma2"]
        fields["pd"] = snr ** float(cfg["rho"]) * fields["sigma2"]
    return SystemParams(**fields)


def run_fig2(cfg: dict):
    """Rates versus pd with ps = sqrt(pd), unit gains and noise."""
    real = ChannelRealization.from_gains(1.0, 1.0)
    header = ["pd", "rs_mf", "rs_af", "upper_bound", "gap"]
    rows = []
    for pd in _axis_values(cfg):
        params = SystemParams(ps=float(np.sqrt(pd)), pd=float(pd), sigma2=float(cfg["sigma2"]),
                              eps1=float(cfg["eps1"]), eps2=float(cfg["eps2"]))
        rows.append([pd, mf_rates(params, real).rs, af_rates(params, real).rs_af,
                     secrecy_upper_bound(params, real), mf_gap(params, real)])
    return header, rows


def run_fig3(cfg: dict):
    header = ["rho", "sd_upper", "sd_mf", "sd_af", "sd_mf_numeric", "sd_af_numeric"]
    rows = []
    for rho in _axis_values(cfg):
        rho = float(rho)
        rows.append([rho,
                     gsdof_closed_form(Scheme.UPPER, rho),
                     gsdof_closed_form(Scheme.MF, rho),
                     gsdof_closed_form(Scheme.AF, rho),
                     estimate_gsdof(Scheme.MF, rho),
                     estimate_gsdof(Scheme.AF, rho)])
    return header, rows


def run_fig4(cfg: dict):
    mc_n = int(cfg["mc_samples"])
    header = ["rd", "p_conn_mf", "p_conn_af", "p_secrecy",
              "p_total_lower", "p_total_upper"]
    if mc_n > 0:
        header += ["p_conn_mf_mc", "p_conn_af_mc", "p_secrecy_mc",
                   "se_conn_mf_mc", "se_conn_af_mc", "se_secrecy_mc"]
    rows = []
    for idx, rd in enumerate(_axis_values(cfg)):
        rd = float(rd)
        params = _row_params(cfg)
        rc = RateConfig(rd=rd, rs=min(float(cfg["rs"]), rd))
        probs = outage_probs(params, rc)
        row = [rd, probs.p_conn, p_conn_af(params, rd), probs.p_secrecy,
               probs.p_total_lower, probs.p_total_upper]
        if mc_n > 0:
            conn_mf, sec, _ = mc_outage(params, rc, Scheme.MF, mc_n, int(cfg["seed"]), stream=idx)
            conn_af, _, _ = mc_outage(params, rc, Scheme.AF, mc_n, int(cfg["seed"]), stream=idx)
            row += [conn_mf.p_hat, conn_af.p_hat, sec.p_hat,
                    conn_mf.std_err, conn_af.std_err, sec.std_err]
        rows.append(row)
    return header, rows


def run_fig5(cfg: dict):
    rc = RateConfig(rd=float(cfg["rd"]), rs=float(cfg["rs"]))
    header = ["rho", "dg_upper", "dg_mf", "dg_af", "dg_mf_numeric", "dg_af_numeric"]
    rows = []
    for rho in _axis_values(cfg):
        rho = float(rho)
        rows.append([rho,
                     gsdg_closed_form(Scheme.UPPER, rho),
                     gsdg_closed_form(Scheme.MF, rho),
                     gsdg_closed_form(Scheme.AF, rho),
                     estimate_gsdg(Scheme.MF, rho, config=rc),
                     estimate_gsdg(Scheme.AF, rho, config=rc)])
    return header, rows


def run_sweep(cfg: dict):
    axis = cfg["axis"]
    if axis == "rho":
        raise ConfigError("sweep over rho is covered by fig3/fig5")
    mc_n = int(cfg["mc_samples"])
    header = [axis, "gamma_o", "gamma_1", "gamma_s",
              "p_conn_cutset", "p_conn_mf", "p_conn_af", "p_secrecy",
              "p_total_lower", "p_total_upper"]
    if mc_n > 0:
        header += ["p_conn_mf_mc", "p_conn_af_mc", "p_secrecy_mc", "p_total_mf_mc",
                   "se_conn_mf_mc", "se_conn_af_mc", "se_secrecy_mc", "se_total_mf_mc"]
    rows = []
    for idx, val in enumerate(_axis_values(cfg)):
        val = float(val)
        rd = val if axis == "rd" else float(cfg["rd"])
        rs = val if axis == "rs" else float(cfg["rs"])
        rc = RateConfig(rd=rd, rs=min(rs, rd))
        params = _row_params(cfg, axis if axis in ("ps", "pd", "sigma2", "eps1", "eps2") else None, val)
        th = thresholds(rc)
        probs = outage_probs(params, rc)
        row = [val, th.gamma_o, th.gamma_1, th.gamma_s,
               p_conn_cutset_lower(params, rc.rd), probs.p_conn,
               p_conn_af(params, rc.rd), probs.p_secrecy,
               probs.p_total_lower, probs.p_total_upper]
        if mc_n > 0:
            conn_mf, sec, joint = mc_outage(params, rc, Scheme.MF, mc_n, int(cfg["seed"]), stream=idx)
            conn_af, _, _ = mc_outage(params, rc, Scheme.AF, mc_n, int(cfg["seed"]), stream=idx)
            row += [conn_mf.p_hat, conn_af.p_hat, sec.p_hat, joint.p_hat,
                    conn_mf.std_err, conn_af.std_err, sec.std_err, joint.std_err]
        rows.append(row)
    return header, rows


CHAIN_GAIN_GRID = ((3.0, 3.0), (1.0, 10.0), (10.0, 1.0))
CHAIN_PD_GRID = (0.0, 10.0, 1e6)


def run_chain(cfg: dict):
    n = int(cfg["mc_samples"]) or 1000000
    header = ["g1", "g2", "ps", "pd", "alpha", "beta", "relay_power",
              "residual_var", "folded_var", "analytic_sigma_e2", "uniformity_pvalue"]
    rows = []
    for g1, g2 in CHAIN_GAIN_GRID:
        for pd in CHAIN_PD_GRID:
            params = SystemParams(ps=float(cfg["ps"]), pd=pd, sigma2=float(cfg["sigma2"]),
                                  eps1=float(cfg["eps1"]), eps2=float(cfg["eps2"]))
            real = ChannelRealization.from_gains(g1, g2)
            report = simulate_chain(params, real,
                                    LatticeConfig(ps=params.ps, n_symbols=n, seed=int(cfg["seed"])))
            rows.append([g1, g2, params.ps, pd, report.alpha, report.beta,
                         report.measured_relay_power, report.measured_residual_var,
                         report.measured_folded_var, report.analytic_sigma_e2,
                         report.uniformity_pvalue])
    return header, rows


_RUNNERS = {"fig2": run_fig2, "fig3": run_fig3, "fig4": run_fig4,
            "fig5": run_fig5, "sweep": run_sweep, "chain": run_chain}


def format_table(cfg: dict, header, rows) -> str:
    meta = {k: cfg[k] for k in sorted(cfg) if k != "out"}
    lines = [
        f"# mfrelay {__version__}",
        f"# experiment: {cfg['experiment']}",
        f"# seed: {int(cfg['seed'])}",
        f"# config: {json.dumps(meta, sort_keys=True)}",
        ",".join(header),
    ]
    for row in rows:
        cells = []
        for v in row:
            v = float(v)
            if not np.isfinite(v):
                raise RuntimeError("non-finite cell in output table")
            cells.append(f"{v + 0.0:.12g}")  # + 0.0 writes -0.0 as 0
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mfrelay", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        p.add_argument("--seed", type=int)
        p.add_argument("--mc-samples", type=int, dest="mc_samples")
        for key in PARAM_KEYS:
            p.add_argument(f"--{key}", type=float)
        p.add_argument("--axis", choices=SWEEPABLE)
        p.add_argument("--axis-min", type=float, dest="axis_min")
        p.add_argument("--axis-max", type=float, dest="axis_max")
        p.add_argument("--axis-points", type=int, dest="axis_points")
        p.add_argument("--axis-scale", choices=("linear", "log"), dest="axis_scale")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: getattr(args, k) for k in
                 PARAM_KEYS + AXIS_KEYS + ("mc_samples", "seed", "out")}
    try:
        cfg = load_config(args.experiment, args.config, overrides)
        header, rows = _RUNNERS[args.experiment](cfg)
        text = format_table(cfg, header, rows)
    except (ConfigError, ValueError) as exc:
        # a library ValueError means the config reached outside a model's domain
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    try:
        write_output(text, cfg.get("out"))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
