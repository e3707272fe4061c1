"""Outside-in tracing of mfrelay's public functions, and the reduction of
spans to per-layer metrics.

The tracer runs inside an op's child process.  It never edits ``src/``:
it wraps each public function below and rebinds the wrapper under every
name that refers to the original in the modules that call it
(CALL_SITES).  Calls a module makes to its own functions through its own
globals are seen only where that module is itself a call site (outage).
Spans are kept in memory and written as JSON lines when the op ends.
"""

from __future__ import annotations

import inspect
import json
import math
import time

# defining module -> public functions that get a span
TRACED = {
    "cli": ("main",),
    "asymptotics": ("estimate_gsdof", "estimate_gsdg"),
    "rates": ("sigma_e_sq", "cutset_capacity", "relay_capacity", "secrecy_upper_bound",
              "mf_rates", "af_rates", "df_comparison", "mf_gap", "rate_report"),
    "outage": ("p_conn_mf", "p_conn_af", "p_secrecy", "p_conn_cutset_lower",
               "outage_probs", "mc_outage"),
    "numerics": ("bessel_k1",),
    "channel": ("sample_gains", "rng_stream"),
    "latticesim": ("simulate_chain", "scan_scaling"),
}
CALL_SITES = ("mfrelay", "mfrelay.cli", "mfrelay.asymptotics", "mfrelay.outage",
              "mfrelay.latticesim")
CLOSED_FORMS = ("outage.p_conn_mf", "outage.p_conn_af", "outage.p_secrecy",
                "outage.p_conn_cutset_lower", "outage.outage_probs")
K1_SPLIT_DEFAULT = 2.0
SIM_BLOCK_DEFAULT = 1 << 17


def _work(name: str, args: dict, result, package) -> dict:
    """Work counts of one call, taken outside its timed interval."""
    import numpy as np

    if name == "numerics.bessel_k1":
        x = np.asarray(args["x"], dtype=float)
        # the quadrature path builds a (large, nodes) float64 matrix
        split = getattr(package.numerics, "_K1_SPLIT", K1_SPLIT_DEFAULT)
        large = int(np.count_nonzero(x > split))
        nodes = getattr(package.numerics, "_K1_QUAD_NODES", 0)
        return {"points": int(x.size), "large": large, "bytes": 8 * nodes * large}
    if name in CLOSED_FORMS:
        return {"points": int(np.size(result)) if name != "outage.outage_probs" else 1}
    if name == "rates.rate_report":
        return {"points": int(np.size(result.gap))}
    if name == "outage.mc_outage":
        p, c = args["params"], args["config"]
        draws = (args["seed"], args["stream"], [np.asarray(getattr(p, f)).tolist() for f in
                 ("ps", "pd", "sigma2", "eps1", "eps2")],
                 np.asarray(c.rd).tolist(), np.asarray(c.rs).tolist(), int(args["n"]))
        return {"samples": int(args["n"]), "draws": json.dumps(draws)}
    if name == "channel.sample_gains":
        return {"samples": int(args["size"])}
    if name == "latticesim.simulate_chain":
        return {"symbols": int(args["cfg"].n_symbols)}
    if name == "latticesim.scan_scaling":
        block = getattr(package.latticesim, "_SIM_BLOCK", SIM_BLOCK_DEFAULT)
        return {"blocks_per_pass": math.ceil(int(args["cfg"].n_symbols) / block)}
    return {}


class Tracer:
    """Span recorder for one op; ``install`` wraps the package in place."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, package):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = {"i": idx, "name": name, "start": start, "end": end,
                              "parent": parent}
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            spans[idx].update(_work(name, bound.arguments, result, package))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package):
        import sys

        sites = [sys.modules[m] for m in CALL_SITES if m in sys.modules]
        for modname, names in TRACED.items():
            module = getattr(package, modname, None)
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{modname}.{fname}", original, package)
                for site in sites:
                    for attr, value in list(vars(site).items()):
                        if value is original:
                            setattr(site, attr, wrapper)

    def dump(self, fh):
        for s in self.spans:
            if s is not None:
                fh.write(json.dumps(dict(s, op=self.op_id)) + "\n")


def self_times(spans):
    """{(op, i): self seconds}: each span's duration minus the part of it
    covered by the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault((s["op"], s["parent"]), []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered, reach = 0.0, lo
        for a, b in sorted(children.get((s["op"], s["i"]), ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out[(s["op"], s["i"])] = (hi - lo) - covered
    return out


def _ancestors(span, by_key):
    key = (span["op"], span["parent"])
    while key[1] != -1:
        parent = by_key[key]
        yield parent
        key = (parent["op"], parent["parent"])


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (the spans of all its ops)."""
    own = self_times(spans)
    by_key = {(s["op"], s["i"]): s for s in spans}
    agg = {}
    for s in spans:
        a = agg.setdefault(s["name"], {"calls": 0, "self": 0.0, "total": 0.0})
        a["calls"] += 1
        a["self"] += own[(s["op"], s["i"])]
        a["total"] += s["end"] - s["start"]
        for key in ("points", "large", "bytes", "samples", "symbols"):
            a[key] = a.get(key, 0) + s.get(key, 0)

    def get(name, field):
        return agg.get(name, {}).get(field, 0)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    def group(names, field):
        return sum(get(n, field) for n in names)

    rates_names = [f"rates.{f}" for f in TRACED["rates"]]
    k1 = "numerics.bessel_k1"
    mc = "outage.mc_outage"
    draws = [(s["op"], s["draws"]) for s in spans if s["name"] == mc]
    scans = [s for s in spans if s["name"] == "latticesim.scan_scaling"]
    scan_rng = sum(1 for s in spans if s["name"] == "channel.rng_stream"
                   and any(p["name"] == "latticesim.scan_scaling" for p in _ancestors(s, by_key)))
    scan_blocks = sum(s["blocks_per_pass"] for s in scans)
    chain = "latticesim.simulate_chain"
    return {
        "cli.main.self_s": get("cli.main", "self"),
        "asymptotics.estimate_gsdof.calls": get("asymptotics.estimate_gsdof", "calls"),
        "asymptotics.estimate_gsdof.self_s": get("asymptotics.estimate_gsdof", "self"),
        "asymptotics.estimate_gsdg.calls": get("asymptotics.estimate_gsdg", "calls"),
        "asymptotics.estimate_gsdg.self_s": get("asymptotics.estimate_gsdg", "self"),
        "rates.calls": group(rates_names, "calls"),
        "rates.self_s": group(rates_names, "self"),
        "rates.rate_report.points_per_s": rate(get("rates.rate_report", "points"),
                                               get("rates.rate_report", "total")),
        "outage.closed_form.calls": group(CLOSED_FORMS, "calls"),
        "outage.closed_form.points": group(CLOSED_FORMS, "points"),
        "outage.closed_form.self_s": group(CLOSED_FORMS, "self"),
        "numerics.bessel_k1.calls": get(k1, "calls"),
        "numerics.bessel_k1.points": get(k1, "points"),
        "numerics.bessel_k1.large_share": rate(get(k1, "large"), get(k1, "points")),
        "numerics.bessel_k1.self_s": get(k1, "self"),
        "numerics.bessel_k1.points_per_s": rate(get(k1, "points"), get(k1, "self")),
        "numerics.bessel_k1.computed_bytes": get(k1, "bytes"),
        "outage.mc_outage.calls": get(mc, "calls"),
        "outage.mc_outage.samples": get(mc, "samples"),
        "outage.mc_outage.self_s": get(mc, "self"),
        "outage.mc_outage.samples_per_s": rate(get(mc, "samples"), get(mc, "total")),
        "outage.mc_outage.draw_reuse_ratio": rate(len(set(draws)), len(draws)),
        "channel.sample_gains.calls": get("channel.sample_gains", "calls"),
        "channel.sample_gains.samples": get("channel.sample_gains", "samples"),
        "channel.sample_gains.self_s": get("channel.sample_gains", "self"),
        "channel.rng_stream.calls": get("channel.rng_stream", "calls"),
        "latticesim.simulate_chain.calls": get(chain, "calls"),
        "latticesim.simulate_chain.symbols": get(chain, "symbols"),
        "latticesim.simulate_chain.self_s": get(chain, "self"),
        "latticesim.simulate_chain.symbols_per_s": rate(get(chain, "symbols"), get(chain, "total")),
        "latticesim.scan_scaling.self_s": get("latticesim.scan_scaling", "self"),
        "latticesim.scan_scaling.chain_passes": rate(scan_rng, scan_blocks),
    }

