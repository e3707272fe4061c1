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
flags take the values JSON keys take and override them.  A flag or key
the experiment would ignore (one it does not read, its own axis, or pd
with rho) or of the wrong type is refused with one error line.  Output is
CSV with '#' metadata lines and 12-significant-digit cells; identical
(config, seed) pairs produce byte-identical files.  Exit codes: 0 ok, 2
invalid config (a library ValueError during the run too), 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .asymptotics import estimate_gsdof, estimate_gsdg, gsdg_closed_form, gsdof_closed_form
from .channel import (ChannelRealization, RateConfig, SystemParams, _is_number, _pd_at_rho,
                      thresholds)
from .latticesim import LatticeConfig, simulate_chain
from .outage import MCEstimate, _mc_counts, outage_probs, p_conn_af, p_conn_cutset_lower
from .rates import Scheme, rate_report

PARAM_KEYS = ("ps", "pd", "sigma2", "eps1", "eps2", "rd", "rs", "rho")
SWEEPABLE = ("ps", "pd", "sigma2", "eps1", "eps2", "rd", "rs")
_SYSTEM_KEYS = ("ps", "pd", "sigma2", "eps1", "eps2")
_RANGE = ("axis_min", "axis_max", "axis_points", "axis_scale")
_INTEGRAL = ("seed", "mc_samples", "axis_points")
_CHOICES = {"axis": SWEEPABLE + ("rho",), "axis_scale": ("linear", "log")}
_MINIMUM = {"mc_samples": 0, "axis_points": 1, "rho": 0.0}
_MAXIMUM = {"axis_points": 10 ** 6, "mc_samples": 10 ** 10}

_DEFAULTS = {
    "ps": 10.0, "pd": 10.0, "sigma2": 1.0, "eps1": 1.0, "eps2": 1.0,
    "rd": 1.0, "rs": 0.5, "rho": None,
    "axis": None, "axis_min": None, "axis_max": None,
    "axis_points": None, "axis_scale": None,
    "mc_samples": 0, "seed": 1234, "out": None,
}


class ConfigError(Exception):
    pass


def load_config(experiment: str, config_path: str | None, overrides: dict) -> dict:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    given = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                given = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(given, dict):
            raise ConfigError("config JSON must be an object")
        unknown = set(given) - set(_DEFAULTS) - {"experiment"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        file_experiment = given.pop("experiment", experiment)
        if file_experiment != experiment:
            raise ConfigError(f"config file is for {file_experiment!r}, not {experiment!r}")
    given.update({k: v for k, v in overrides.items() if v is not None})
    cfg = {**_DEFAULTS, **_TABLE[experiment].defaults, "experiment": experiment, **given}
    _validate(cfg, given)
    return cfg


def _validate(cfg: dict, given: dict):
    """Check the types of the keys set by flags or JSON, reject those the
    experiment would ignore, then check the ranges of the merged config."""
    for key, value in given.items():
        if key == "out":
            ok, kind = isinstance(value, str), "a path"
        elif key in _CHOICES:
            ok, kind = isinstance(value, str) and value in _CHOICES[key], f"one of {_CHOICES[key]}"
        else:
            ok = _is_number(value, integral=key in _INTEGRAL)
            kind = "an integer" if key in _INTEGRAL else "a finite number"
        if not ok:
            raise ConfigError(f"{key} must be {kind}, not {value!r}")
        # 0 MC samples means no MC columns, but the chain needs a symbol
        least = 1 if key == "mc_samples" and cfg["experiment"] == "chain" else _MINIMUM.get(key)
        if least is not None and value < least:
            raise ConfigError(f"{key} must be >= {least}")
        if key in _MAXIMUM and value > _MAXIMUM[key]:
            raise ConfigError(f"{key} must be <= {_MAXIMUM[key]}")
    experiment, axis = cfg["experiment"], cfg["axis"]
    spec = _TABLE[experiment]
    if spec.axes and axis not in spec.axes:
        raise ConfigError(f"{experiment} runs along {' or '.join(spec.axes)}, not {axis}")
    reads = {"seed", "out", *spec.reads, *(("axis",) + _RANGE if spec.axes else ())} - {axis}
    ignored = sorted(set(given) - reads)
    if ignored:
        along = f" along {axis}" if spec.axes else ""
        raise ConfigError(f"{experiment}{along} ignores {', '.join(ignored)}; "
                          f"it reads {', '.join(sorted(reads))}")
    if "rho" in given and (axis == "pd" or "pd" in given):
        raise ConfigError("rho and pd cannot both be set: rho derives pd = snr^rho * sigma2")
    try:
        SystemParams(**{k: float(cfg[k]) for k in _SYSTEM_KEYS})
        # an rs axis stands in for the rs key: its largest row must not pass rd
        RateConfig(rd=float(cfg["rd"]), rs=float(cfg["axis_max" if axis == "rs" else "rs"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if axis is not None:
        lo, hi = float(cfg["axis_min"]), float(cfg["axis_max"])
        if lo > hi:
            raise ConfigError("axis_min must not exceed axis_max")
        if cfg["axis_scale"] == "log" and lo <= 0:
            raise ConfigError("log-scaled axis needs positive bounds")


def _axis_values(cfg: dict) -> np.ndarray:
    lo, hi, pts = float(cfg["axis_min"]), float(cfg["axis_max"]), int(cfg["axis_points"])
    if pts == 1:
        return np.array([lo])
    if cfg["axis_scale"] == "log":
        return np.logspace(np.log10(lo), np.log10(hi), pts)
    return np.linspace(lo, hi, pts)


def run_fig2(cfg: dict):
    """Rates versus pd with ps = sqrt(pd), unit gains and noise."""
    pd = _axis_values(cfg)
    params = SystemParams(ps=np.sqrt(pd), pd=pd, sigma2=float(cfg["sigma2"]),
                          eps1=float(cfg["eps1"]), eps2=float(cfg["eps2"]))
    rep = rate_report(params, ChannelRealization.from_gains(1.0, 1.0))
    return (["pd", "rs_mf", "rs_af", "upper_bound", "gap"],
            np.column_stack([pd, rep.rs_mf, rep.rs_af, rep.upper_bound_u, rep.gap]))


def _run_rho(cfg: dict, prefix: str, closed_form, estimate):
    """Upper/MF/AF closed forms, one call per column, then MF/AF estimates per rho."""
    header = ["rho"] + [f"{prefix}_{col}" for col in
                        ("upper", "mf", "af", "mf_numeric", "af_numeric")]
    rho = _axis_values(cfg)
    return header, np.column_stack(
        [rho, *(closed_form(s, rho) for s in (Scheme.UPPER, Scheme.MF, Scheme.AF)),
         *([estimate(s, float(r)) for r in rho] for s in (Scheme.MF, Scheme.AF))])


def run_fig3(cfg: dict):
    return _run_rho(cfg, "sd", gsdof_closed_form, estimate_gsdof)


def run_fig5(cfg: dict):
    rc = RateConfig(rd=float(cfg["rd"]), rs=float(cfg["rs"]))
    return _run_rho(cfg, "dg", gsdg_closed_form,
                    lambda scheme, rho: estimate_gsdg(scheme, rho, config=rc))


_FIG4_COLUMNS = ("rd", "p_conn_mf", "p_conn_af", "p_secrecy", "p_total_lower", "p_total_upper",
                 "p_conn_mf_mc", "p_conn_af_mc", "p_secrecy_mc",
                 "se_conn_mf_mc", "se_conn_af_mc", "se_secrecy_mc")


def run_fig4(cfg: dict):
    """Outage versus rd: the columns of the rd sweep that Fig. 4 plots."""
    header, table = run_sweep(cfg)
    keep = [header.index(name) for name in _FIG4_COLUMNS if name in header]
    return [header[i] for i in keep], table[:, keep]


def _row(record, idx: int):
    """Row idx of a SystemParams or RateConfig whose fields are equal-length arrays."""
    return type(record)(**{k: float(v[idx]) for k, v in vars(record).items()})


def run_sweep(cfg: dict):
    """The outage closed forms along the axis, one library call per column;
    only the Monte Carlo columns are computed row by row."""
    axis = cfg["axis"]
    mc_n = int(cfg["mc_samples"])
    header = [axis, "gamma_o", "gamma_1", "gamma_s",
              "p_conn_cutset", "p_conn_mf", "p_conn_af", "p_secrecy",
              "p_total_lower", "p_total_upper"]
    vals = _axis_values(cfg)
    point = {k: vals if k == axis else np.full(vals.shape, float(cfg[k])) for k in SWEEPABLE}
    if cfg["rho"] is not None:  # pd follows each row's snr; an overflow to inf is refused
        point["pd"] = _pd_at_rho(point["ps"], point["sigma2"], cfg["rho"])
    params = SystemParams(**{k: point[k] for k in _SYSTEM_KEYS})
    rc = RateConfig(rd=point["rd"], rs=np.minimum(point["rs"], point["rd"]))
    th = thresholds(rc)
    probs = outage_probs(params, rc)
    cols = [vals, th.gamma_o, th.gamma_1, th.gamma_s,
            p_conn_cutset_lower(params, rc.rd), probs.p_conn,
            p_conn_af(params, rc.rd), probs.p_secrecy,
            probs.p_total_lower, probs.p_total_upper]
    if mc_n > 0:
        header += ["p_conn_mf_mc", "p_conn_af_mc", "p_secrecy_mc", "p_total_mf_mc",
                   "se_conn_mf_mc", "se_conn_af_mc", "se_secrecy_mc", "se_total_mf_mc"]
        rows = []
        for idx in range(vals.size):
            # one pass: MF and AF see the same draws, as do secrecy and joint
            mf, af = _mc_counts(_row(params, idx), _row(rc, idx), (Scheme.MF, Scheme.AF), mc_n,
                                int(cfg["seed"]), stream=idx)
            conn_mf, sec, joint, conn_af = (MCEstimate.from_counts(h, mc_n) for h in (*mf, af[0]))
            rows.append([conn_mf.p_hat, conn_af.p_hat, sec.p_hat, joint.p_hat,
                         conn_mf.std_err, conn_af.std_err, sec.std_err, joint.std_err])
        cols += list(np.transpose(rows))
    return header, np.column_stack(cols)


CHAIN_GAIN_GRID = ((3.0, 3.0), (1.0, 10.0), (10.0, 1.0))
CHAIN_PD_GRID = (0.0, 10.0, 1e6)


def run_chain(cfg: dict):
    header = ["g1", "g2", "ps", "pd", "alpha", "beta", "relay_power",
              "residual_var", "folded_var", "analytic_sigma_e2", "uniformity_pvalue"]
    # one batched call: gain pairs down, jamming powers across, every point
    # on the same draws
    g1, g2 = (np.array(CHAIN_GAIN_GRID)[:, [k]] for k in (0, 1))
    pd = np.array(CHAIN_PD_GRID)
    params = SystemParams(ps=float(cfg["ps"]), pd=pd, sigma2=float(cfg["sigma2"]),
                          eps1=float(cfg["eps1"]), eps2=float(cfg["eps2"]))
    lattice = LatticeConfig(ps=params.ps, n_symbols=int(cfg["mc_samples"]), seed=int(cfg["seed"]))
    report = simulate_chain(params, ChannelRealization.from_gains(g1, g2), lattice)
    cols = (g1, g2, params.ps, pd, report.alpha, report.beta, report.measured_relay_power,
            report.measured_residual_var, report.measured_folded_var,
            report.analytic_sigma_e2, report.uniformity_pvalue)
    return header, np.column_stack([np.broadcast_to(c, report.alpha.shape).ravel() for c in cols])


class _Experiment(NamedTuple):
    run: Callable
    axes: tuple      # the axis values it accepts; () for none
    reads: tuple     # keys it reads besides seed, out and the axis keys
    defaults: dict


_RHO_AXIS = {"axis": "rho", "axis_min": 0.0, "axis_max": 3.0,
             "axis_points": 25, "axis_scale": "linear"}
_SWEEP_READS = PARAM_KEYS + ("mc_samples",)

# The one place an experiment's policy lives: defaults, axis and the keys
# load_config accepts.  A key is read unless it is the row's axis.
_TABLE = {
    "fig2": _Experiment(run_fig2, ("pd",), ("sigma2", "eps1", "eps2"),
                        {"axis": "pd", "axis_min": 1.0, "axis_max": 1e8,
                         "axis_points": 33, "axis_scale": "log"}),
    "fig3": _Experiment(run_fig3, ("rho",), (), _RHO_AXIS),
    "fig4": _Experiment(run_fig4, ("rd",), _SWEEP_READS,
                        {"axis": "rd", "axis_min": 0.5, "axis_max": 15.0, "axis_points": 30,
                         "axis_scale": "linear", "mc_samples": 100000}),
    "fig5": _Experiment(run_fig5, ("rho",), ("rd", "rs"), _RHO_AXIS),
    "sweep": _Experiment(run_sweep, SWEEPABLE, _SWEEP_READS,
                         {"axis": "ps", "axis_min": 1.0, "axis_max": 1e4,
                          "axis_points": 25, "axis_scale": "log"}),
    "chain": _Experiment(run_chain, (), ("ps", "sigma2", "eps1", "eps2", "mc_samples"),
                         {"ps": 1.0, "mc_samples": 1000000}),
}
EXPERIMENTS = tuple(_TABLE)


def format_table(cfg: dict, header, table: np.ndarray) -> str:
    meta = {k: cfg[k] for k in sorted(cfg) if k != "out"}
    lines = [
        f"# mfrelay {__version__}",
        f"# experiment: {cfg['experiment']}",
        f"# seed: {int(cfg['seed'])}",
        f"# config: {json.dumps(meta, sort_keys=True)}",
        ",".join(header),
    ]
    if not np.all(np.isfinite(table)):
        raise RuntimeError("non-finite cell in output table")
    # + 0.0 writes -0.0 as 0
    lines += [",".join(f"{v + 0.0:.12g}" for v in row) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def write_output(text: str, out: str | None):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


class _Parser(argparse.ArgumentParser):
    """Refuses a command line as load_config refuses a config: one error
    line and exit 2.  Subparsers are made of the same class."""

    def error(self, message):
        print("error:", " ".join(message.split()), file=sys.stderr)
        sys.exit(2)


def integer(text: str):
    """A count flag read as JSON reads it: 1000000 stays an int, and 1e6 is
    a float that _validate accepts because it is integral."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mfrelay", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        for key in ("seed", "mc_samples", *PARAM_KEYS, "axis", *_RANGE):
            kind = integer if key in _INTEGRAL else None if key in _CHOICES else float
            p.add_argument("--" + key.replace("_", "-"), type=kind)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items() if k not in ("experiment", "config")}
    try:
        cfg = load_config(args.experiment, args.config, overrides)
        with np.errstate(all="ignore"):  # stderr is for error lines; cells are checked finite
            header, table = _TABLE[args.experiment].run(cfg)
        write_output(format_table(cfg, header, table), cfg.get("out"))
    except (ConfigError, ValueError) as exc:
        # a library ValueError means the config reached outside a model's domain
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
