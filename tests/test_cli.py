import json
import pathlib
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mfrelay.channel import ChannelRealization, RateConfig, SystemParams, thresholds
from mfrelay.cli import SWEEPABLE, _axis_values, load_config, main, run_fig2, run_sweep
from mfrelay.outage import MCEstimate, _mc_counts, outage_probs, p_conn_af, p_conn_cutset_lower
from mfrelay.rates import Scheme, af_rates, mf_gap, mf_rates, secrecy_upper_bound

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(args):
    return main(args)


def exit_code(argv):
    """main's return code, or the code of the SystemExit argparse raises."""
    try:
        return run_cli(argv)
    except SystemExit as exc:
        return exc.code


def read_table(path):
    meta, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            meta.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(v) for v in line.split(",")])
    return meta, header, np.array(rows)


def columns(header, rows):
    return {name: rows[:, i] for i, name in enumerate(header)}


class TestFig2:
    def test_table_properties(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert run_cli(["fig2", "--out", str(out), "--axis-points", "17"]) == 0
        meta, header, rows = read_table(out)
        assert header == ["pd", "rs_mf", "rs_af", "upper_bound", "gap"]
        col = columns(header, rows)
        assert np.all(col["gap"] <= 0.5 + 1e-12)
        assert np.all(col["rs_mf"] <= col["upper_bound"] + 1e-12)
        # beyond pd = 100 the MF rate strictly climbs
        grow = col["pd"] >= 100.0
        assert np.all(np.diff(col["rs_mf"][grow]) > 0)
        # AF pins at ~1/2 bit for the largest jamming power
        assert 0.45 <= col["rs_af"][-1] <= 0.55


class TestFig3:
    def test_closed_form_columns(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run_cli(["fig3", "--out", str(out), "--axis-points", "13"]) == 0
        _, header, rows = read_table(out)
        col = columns(header, rows)
        assert np.array_equal(col["sd_mf"], col["sd_upper"])
        peak = col["rho"][np.argmax(col["sd_af"])]
        assert peak == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(col["sd_mf_numeric"] - col["sd_mf"])) <= 0.05
        assert np.max(np.abs(col["sd_af_numeric"] - col["sd_af"])) <= 0.05


class TestFig4:
    def test_orderings_and_mc_agreement(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert run_cli(["fig4", "--out", str(out), "--axis-points", "8",
                        "--mc-samples", "200000", "--seed", "9"]) == 0
        _, header, rows = read_table(out)
        col = columns(header, rows)
        assert col["p_secrecy"][0] == 1.0  # rd = rs = 1/2
        assert np.all(col["p_conn_af"] >= col["p_conn_mf"] - 1e-12)
        assert np.all(np.diff(col["p_secrecy"]) <= 0)
        assert np.all(np.diff(col["p_conn_mf"]) >= 0)
        for name in ("p_conn_mf", "p_conn_af", "p_secrecy"):
            diff = np.abs(col[name] - col[name + "_mc"])
            se = col["se_" + name.removeprefix("p_") + "_mc"]
            # rule-of-three allowance covers rows where p_hat in {0, 1}
            assert np.all(diff <= 3 * se + 3.0 / 200000)

    def test_mc_columns_absent_when_disabled(self, tmp_path):
        out = tmp_path / "fig4.csv"
        assert run_cli(["fig4", "--out", str(out), "--axis-points", "4",
                        "--mc-samples", "0"]) == 0
        _, header, _ = read_table(out)
        assert "p_conn_mf_mc" not in header


class TestFig5:
    def test_closed_form_columns(self, tmp_path):
        out = tmp_path / "fig5.csv"
        assert run_cli(["fig5", "--out", str(out), "--axis-points", "13"]) == 0
        _, header, rows = read_table(out)
        col = columns(header, rows)
        assert np.all(col["dg_mf"][col["rho"] > 2.0] == 1.0)
        k = np.argmax(col["dg_af"])
        assert col["rho"][k] == pytest.approx(1.5, abs=1e-9)
        assert col["dg_af"][k] == 0.5
        assert np.max(np.abs(col["dg_mf_numeric"] - col["dg_mf"])) <= 0.1
        assert np.max(np.abs(col["dg_af_numeric"] - col["dg_af"])) <= 0.1

    def test_no_negative_zero_cells(self, tmp_path):
        # at the defaults dg_af_numeric is -0.0 on the rows rho >= 2.25
        out = tmp_path / "fig5.csv"
        assert run_cli(["fig5", "--out", str(out)]) == 0
        _, header, rows = read_table(out)
        assert np.any(rows == 0.0)
        cells = [c for line in out.read_text().splitlines()[5:] for c in line.split(",")]
        assert "-0" not in cells


class TestSweep:
    def test_outage_columns_with_mc(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--out", str(out), "--axis", "ps",
                        "--axis-min", "5", "--axis-max", "50",
                        "--axis-points", "5", "--axis-scale", "log",
                        "--mc-samples", "50000", "--seed", "3"]) == 0
        _, header, rows = read_table(out)
        col = columns(header, rows)
        assert np.all(col["p_conn_cutset"] <= col["p_conn_mf"] + 1e-12)
        assert np.all(col["p_total_lower"] <= col["p_total_upper"] + 1e-12)
        assert np.all(col["p_total_upper"] <= 2 * col["p_total_lower"] + 1e-12)
        mc_lower = np.maximum(col["p_conn_mf_mc"], col["p_secrecy_mc"])
        assert np.all(mc_lower <= col["p_total_mf_mc"] + 1e-12)

    def test_rho_locked_pd(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--out", str(out), "--axis", "ps",
                        "--axis-min", "100", "--axis-max", "10000",
                        "--axis-points", "3", "--axis-scale", "log",
                        "--rho", "2.0"]) == 0
        _, header, rows = read_table(out)
        col = columns(header, rows)
        # pd = snr^rho tracks the axis, so secrecy outage falls like 1/snr
        assert col["p_secrecy"][-1] < col["p_secrecy"][0] / 10


class TestChain:
    def test_grid_report(self, tmp_path):
        out = tmp_path / "chain.csv"
        assert run_cli(["chain", "--out", str(out), "--mc-samples", "150000"]) == 0
        _, header, rows = read_table(out)
        col = columns(header, rows)
        assert rows.shape[0] == 9  # 3 gain pairs x 3 jamming powers
        rel = np.abs(col["residual_var"] - col["analytic_sigma_e2"]) / col["analytic_sigma_e2"]
        assert np.all(rel < 0.02)
        assert np.all(np.abs(col["relay_power"] - col["ps"]) / col["ps"] < 0.01)
        assert np.all(col["uniformity_pvalue"] > 1e-3)


class TestPlumbing:
    def test_byte_identical_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["fig4", "--axis-points", "5", "--mc-samples", "20000", "--seed", "77"]
        assert run_cli(args + ["--out", str(a)]) == 0
        assert run_cli(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_metadata_lines(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli(["fig2", "--out", str(out), "--axis-points", "3"]) == 0
        meta, _, _ = read_table(out)
        assert meta[0].startswith("# mfrelay ")
        assert meta[1] == "# experiment: fig2"
        assert any(line.startswith("# seed:") for line in meta)
        assert any(line.startswith("# config:") for line in meta)

    def test_config_file_and_flag_override(self, tmp_path):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({
            "experiment": "sweep", "axis": "rd", "axis_min": 0.5, "axis_max": 2.0,
            "axis_points": 4, "axis_scale": "linear", "ps": 10.0, "pd": 10.0,
            "seed": 5,
        }))
        out = tmp_path / "s.csv"
        assert run_cli(["sweep", "--config", str(cfgfile), "--out", str(out),
                        "--axis-points", "6"]) == 0
        _, _, rows = read_table(out)
        assert rows.shape[0] == 6  # flag overrides the file's 4

    def test_stdout_output(self, capsys):
        assert run_cli(["fig2", "--axis-points", "3"]) == 0
        captured = capsys.readouterr()
        assert "rs_mf" in captured.out

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        assert run_cli(["sweep", "--ps", "-3"]) == 2
        assert run_cli(["sweep", "--axis-scale", "log", "--axis-min", "0",
                        "--axis-max", "10", "--axis-points", "3"]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli(["fig2", "--config", str(bad)]) == 2
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"experiment": "fig3"}))
        assert run_cli(["fig2", "--config", str(wrong)]) == 2
        unknown = tmp_path / "unk.json"
        unknown.write_text(json.dumps({"no_such_key": 1}))
        assert run_cli(["fig2", "--config", str(unknown)]) == 2

    def test_library_value_error_exits_2(self):
        # fig4 runs along rd only, so --axis ps is rejected before the run starts
        proc = subprocess.run(
            [sys.executable, "-m", "mfrelay", "fig4", "--axis", "ps", "--axis-min", "1",
             "--axis-max", "1e4", "--mc-samples", "0"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("error: ")
        assert proc.stdout == ""

    def test_library_value_error_mid_run_exits_2(self):
        # the config is valid, but the row sigma2 = 0 leaves SystemParams' domain
        proc = subprocess.run(
            [sys.executable, "-m", "mfrelay", "sweep", "--axis", "sigma2", "--axis-min", "0",
             "--axis-max", "1", "--axis-scale", "linear", "--axis-points", "2"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == ["error: ps and sigma2 must be positive"]
        assert proc.stdout == ""

    def test_rd_overflow_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mfrelay", "sweep", "--axis", "rd", "--axis-min", "600",
             "--axis-max", "600", "--axis-points", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert len(proc.stderr.splitlines()) == 1  # no overflow warning, no traceback
        assert proc.stderr.startswith("error: rd must be below 512")

    def test_io_failure_exits_3(self, tmp_path):
        missing_dir = tmp_path / "no" / "such" / "dir" / "t.csv"
        assert run_cli(["fig2", "--axis-points", "3", "--out", str(missing_dir)]) == 3

    def test_bad_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["frobnicate"])
        assert exc.value.code == 2

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mfrelay", "fig2", "--axis-points", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "rs_mf" in proc.stdout

    def test_import_leaves_scipy_stats_unloaded(self):
        assert scipy_loaded_after("import mfrelay") == {"scipy.special": False,
                                                        "scipy.stats": False}

    @pytest.mark.parametrize("op, special", [("fig2", False), ("fig3", False), ("fig5", True)])
    def test_scipy_special_loads_only_for_k1(self, op, special):
        # the full-CSIT rates and exponents need no special function
        loaded = scipy_loaded_after(cli_run(op, "--axis-points", "3"))
        assert loaded == {"scipy.special": special, "scipy.stats": False}

    def test_first_special_calls_under_threads(self):
        # four threads make the first bessel_k1 and chi-square calls of a fresh
        # interpreter at once; each must see the lazily imported functions
        code = textwrap.dedent("""
            import sys, threading
            import numpy as np
            from mfrelay.latticesim import _uniformity_pvalue
            from mfrelay.numerics import bessel_k1
            assert "scipy.special" not in sys.modules
            xs = np.geomspace(1e-3, 800.0, 4001)
            stats = np.linspace(0.0, 200.0, 41)
            barrier = threading.Barrier(4)
            results = [None] * 4
            def first_calls(i):
                barrier.wait()
                results[i] = bessel_k1(xs), [_uniformity_pvalue(s) for s in stats]
            threads = [threading.Thread(target=first_calls, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            from scipy.special import chdtrc, k1
            k1_ref, p_ref = k1(xs), chdtrc(63, stats)
            for k1_vals, p_vals in results:
                assert k1_vals.tobytes() == k1_ref.tobytes()
                assert np.array(p_vals).tobytes() == p_ref.tobytes()
            print("ok")
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


def cli_run(*argv):
    """Source that runs ``cli.main(argv)`` with its CSV discarded."""
    return ("import contextlib, io\nfrom mfrelay import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({list(argv)!r}) == 0")


def scipy_loaded_after(source):
    """Which of scipy.special and scipy.stats a fresh interpreter has loaded
    after running ``source``."""
    code = (source + "\nimport json, sys\n"
            "print(json.dumps({m: m in sys.modules for m in ('scipy.special', 'scipy.stats')}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Small configs whose CSV bytes were recorded in tests/data/<name>.csv before
# fig4 became a projection of sweep and sweep rows drew MF and AF together;
# the MC runs use n = 140000, two blocks per row.
GOLDEN = {
    "fig2": ["fig2", "--axis-points", "9"],
    "fig3": ["fig3", "--axis-points", "7"],
    "fig4": ["fig4", "--axis-points", "6", "--mc-samples", "140000", "--seed", "7"],
    "fig5": ["fig5", "--axis-points", "7"],
    "sweep": ["sweep", "--axis-min", "2", "--axis-max", "200", "--axis-points", "4",
              "--rho", "1.5", "--mc-samples", "140000", "--seed", "3"],
    "chain": ["chain", "--mc-samples", "20000", "--seed", "5"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_csv_bytes(name, tmp_path):
    out = tmp_path / "t.csv"
    assert run_cli(GOLDEN[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


def assert_one_error_line(code, capsys):
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    return err[0]


@pytest.mark.parametrize("argv", [
    ["fig4", "--axis", "ps", "--axis-min", "1", "--axis-max", "1e4"],  # not its axis
    ["fig3", "--axis", "pd"],
    ["fig3", "--rho", "2"],              # its axis, not a key
    ["fig2", "--ps", "5"],               # fig2 ties ps to sqrt(pd)
    ["fig2", "--mc-samples", "10"],
    ["fig4", "--rd", "3"],
    ["sweep", "--axis", "pd", "--rho", "1.5"],
    ["sweep", "--pd", "3", "--rho", "1.5"],
    ["sweep", "--axis", "ps", "--ps", "5"],
    ["chain", "--axis", "rd"],
    ["chain", "--pd", "3"],
    ["chain", "--mc-samples", "0"],      # the chain needs one symbol
    ["sweep", "--ps", "nan"],
    ["sweep", "--mc-samples", "-1"],
    ["sweep", "--axis-points", "0"],
    ["sweep", "--axis", "rd", "--axis-min", "600", "--axis-max", "600", "--axis-points", "1"],
    ["fig5", "--rd", "600"],
    ["fig3", "--axis-points", "1000000000000"],
    ["sweep", "--mc-samples", "10000000001"],
    ["fig4", "--rho", "600.5"],          # pd = snr^rho overflows a double
    ["fig3", "--axis-max", "600.5"],
    ["fig2", "--ps", "x"],               # argparse refusals are one line too
    ["fig2", "--bogus", "1"],
    [],
    ["frobnicate"],
    ["fig2", "--seed", "x"],
    ["sweep", "--mc-samples", "2.5"],
    ["sweep", "--axis", "bogus"],
    ["sweep", "--axis-scale", "cubic"],
    ["sweep", "--axis", "sigma2", "--axis-min", "0", "--axis-max", "1", "--axis-scale", "linear",
     "--axis-points", "2", "--rho", "1"],   # a row's snr = ps/0 with pd derived from it
])
def test_ignored_or_invalid_flags_rejected(argv, capsys):
    line = assert_one_error_line(exit_code(argv), capsys)
    if argv == ["chain", "--mc-samples", "0"]:  # the flag's name, not LatticeConfig's field
        assert line == "error: mc_samples must be >= 1"


@pytest.mark.parametrize("experiment, data", [
    ("fig2", {"seed": [1]}),
    ("fig2", {"seed": "abc"}),
    ("sweep", {"axis_points": "x"}),
    ("fig4", {"mc_samples": 2.5}),
    ("sweep", {"ps": True}),
    ("sweep", {"ps": 10 ** 400}),
    ("fig4", {"rho": None}),
    ("fig2", {"out": 3}),
    ("fig3", {"axis_scale": "cubic"}),
    ("sweep", {"axis": "rho"}),
    ("fig5", {"axis": "rho", "rho": 1.0}),
    ("fig4", {"mc_samples": 1e18}),
    ("fig2", {"axis_points": 1000001}),
])
def test_ignored_or_mistyped_json_rejected(experiment, data, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    assert_one_error_line(run_cli([experiment, "--config", str(cfg)]), capsys)


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "pd", "--axis-min", "1e300", "--axis-max", "1e308", "--axis-points", "2",
     "--mc-samples", "10"],
    ["fig4", "--eps1", "2.2250738585072014e-308", "--axis-points", "2", "--mc-samples", "10"],
    ["fig4", "--sigma2", "2.2250738585072014e-308", "--axis-points", "2", "--mc-samples", "10"],
])
def test_extreme_values_run_without_warnings(argv, capsys):
    # intermediate overflows to inf, yet every cell stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("# mfrelay ")


@pytest.mark.parametrize("experiment, data", [
    ("fig2", {"axis": "pd", "axis_points": 3, "seed": 4}),
    ("fig3", {"axis": "rho", "axis_points": 3}),
    ("fig4", {"axis": "rd", "axis_points": 3, "mc_samples": 100, "rho": 1.5}),
    ("sweep", {"axis": "rd", "axis_max": 3, "axis_points": 3, "rs": 0.25, "mc_samples": 1e2}),
    ("chain", {"ps": 2, "mc_samples": 1000}),
])
def test_keys_the_run_reads_accepted(experiment, data, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**data, "out": str(tmp_path / "t.csv")}))
    assert run_cli([experiment, "--config", str(cfg)]) == 0


_FUZZ_KEYS = ("ps", "pd", "sigma2", "eps1", "eps2", "rd", "rs", "rho", "axis", "axis_min",
              "axis_max", "axis_points", "axis_scale", "mc_samples", "seed")
# magnitudes stay small so that every accepted config runs in milliseconds
_FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9), st.floats(-9.0, 9.0),
    st.sampled_from([float("nan"), float("inf"), 600.5, 10 ** 400]),
    st.sampled_from(SWEEPABLE + ("rho", "linear", "log", "")),
    st.lists(st.integers(0, 2), max_size=2))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(experiment=st.sampled_from(("fig2", "fig3", "fig4", "fig5", "sweep", "chain")),
       data=st.dictionaries(st.sampled_from(_FUZZ_KEYS), _FUZZ_VALUES, max_size=4))
def test_fuzzed_json_config_exits_0_or_2(experiment, data, tmp_path, capsys):
    small = {"axis_points": 3} if experiment != "chain" else {}
    if experiment in ("fig4", "sweep", "chain"):
        small["mc_samples"] = 50
    cfg = tmp_path / "fuzz.json"
    cfg.write_text(json.dumps({**small, **data}))
    code = run_cli([experiment, "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert err == "" and out.startswith("# mfrelay ")


@pytest.mark.parametrize("argv, same_rows_as", [
    (["fig3", "--axis", "rho", "--axis-points", "3"], ["fig3", "--axis-points", "3"]),
    (["fig4", "--mc-samples", "1e4", "--axis-points", "2"],
     ["fig4", "--mc-samples", "10000", "--axis-points", "2"]),
    (["sweep", "--axis-points", "3.0", "--seed", "7e0"], ["sweep", "--axis-points", "3"]),
])
def test_flags_take_the_values_json_takes(argv, same_rows_as, tmp_path):
    # the experiment's own axis, and an integral float for a count
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert run_cli(same_rows_as + ["--out", str(b)]) == 0
    _, header_a, rows_a = read_table(a)
    _, header_b, rows_b = read_table(b)
    assert header_a == header_b and np.array_equal(rows_a, rows_b)


def per_row_sweep(cfg):
    """The sweep as it ran before its columns became array calls: scalar
    records and one library call per cell."""
    mc_n = int(cfg["mc_samples"])
    rows = []
    for idx, val in enumerate(_axis_values(cfg)):
        point = {k: float(cfg[k]) for k in SWEEPABLE}
        point[cfg["axis"]] = val = float(val)
        if cfg["rho"] is not None:
            snr = point["ps"] / point["sigma2"]
            point["pd"] = float(np.float_power(snr, cfg["rho"])) * point["sigma2"]
        params = SystemParams(**{k: point[k] for k in ("ps", "pd", "sigma2", "eps1", "eps2")})
        rc = RateConfig(rd=point["rd"], rs=min(point["rs"], point["rd"]))
        th = thresholds(rc)
        probs = outage_probs(params, rc)
        row = [val, th.gamma_o, th.gamma_1, th.gamma_s,
               p_conn_cutset_lower(params, rc.rd), probs.p_conn,
               p_conn_af(params, rc.rd), probs.p_secrecy,
               probs.p_total_lower, probs.p_total_upper]
        if mc_n > 0:
            mf, af = _mc_counts(params, rc, (Scheme.MF, Scheme.AF), mc_n, int(cfg["seed"]),
                                stream=idx)
            conn_mf, sec, joint, conn_af = (MCEstimate.from_counts(h, mc_n) for h in (*mf, af[0]))
            row += [conn_mf.p_hat, conn_af.p_hat, sec.p_hat, joint.p_hat,
                    conn_mf.std_err, conn_af.std_err, sec.std_err, joint.std_err]
        rows.append(row)
    return np.array(rows)


def per_row_fig2(cfg):
    real = ChannelRealization.from_gains(1.0, 1.0)
    rows = []
    for pd in _axis_values(cfg):
        params = SystemParams(ps=float(np.sqrt(pd)), pd=float(pd), sigma2=float(cfg["sigma2"]),
                              eps1=float(cfg["eps1"]), eps2=float(cfg["eps2"]))
        rows.append([pd, mf_rates(params, real).rs, af_rates(params, real).rs_af,
                     secrecy_upper_bound(params, real), mf_gap(params, real)])
    return np.array(rows)


_LINEAR = {"axis_min": 0.1, "axis_max": 20.0, "axis_points": 999, "axis_scale": "linear"}


@pytest.mark.parametrize("experiment, overrides, runner, reference", [
    ("sweep", {"axis": "rd", **_LINEAR}, run_sweep, per_row_sweep),
    ("sweep", {"axis": "rs", **_LINEAR, "axis_min": 0.0, "axis_max": 1.0, "axis_points": 101,
               "mc_samples": 64, "seed": 5}, run_sweep, per_row_sweep),
    ("sweep", {"axis": "ps", "axis_min": 1.0, "axis_max": 1e12, "axis_points": 500,
               "rho": 1.7}, run_sweep, per_row_sweep),
    ("fig2", {"axis_points": 1000}, run_fig2, per_row_fig2),
])
def test_column_runners_equal_a_per_row_reference(experiment, overrides, runner, reference):
    # the golden CSVs have 4-9 rows; these axes are long enough to catch last-bit drift
    cfg = load_config(experiment, None, overrides)
    with np.errstate(all="ignore"):
        _, table = runner(cfg)
        expected = reference(cfg)
    assert table.shape == expected.shape
    assert table.tobytes() == expected.tobytes()


_ARGV_TOKENS = st.one_of(
    st.sampled_from(["--" + k.replace("_", "-") for k in _FUZZ_KEYS] + ["--bogus", "--axis-m"]),
    st.sampled_from(["1", "3", "0", "-2", "2.5", "1e1", "1e400", "nan", "inf", "600.5", "x", "",
                     "rho", "linear", "log"] + list(SWEEPABLE)),
    st.text(max_size=4).filter(lambda t: not t.startswith("-")))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(experiment=st.sampled_from(("fig2", "fig3", "fig4", "fig5", "sweep", "chain", "")),
       tokens=st.lists(_ARGV_TOKENS, max_size=6))
def test_fuzzed_flags_exit_0_or_2(experiment, tokens, capsys):
    # --out, --config and --help are left out: they write files, read files or print help
    argv = [experiment] if experiment else []
    if experiment in ("fig4", "sweep", "chain"):
        argv += ["--mc-samples", "50"]
    if experiment not in ("", "chain"):
        argv += ["--axis-points", "3"]
    code = exit_code(argv + tokens)
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    else:
        assert err == "" and out.startswith("# mfrelay ")


_CONN_COLUMNS = ("p_conn_cutset", "p_conn_mf", "p_conn_af")


@pytest.mark.parametrize("argv, rows_at_1", [
    (["--axis", "ps", "--axis-min", "1e-300", "--axis-max", "1", "--axis-points", "3"], 2),
    (["--axis", "rd", "--axis-min", "500", "--axis-max", "511", "--axis-points", "2",
      "--ps", "0.1"], 2),
    (["--axis", "rd", "--axis-min", "511.5", "--axis-max", "511.99", "--axis-points", "3",
      "--ps", "1e300"], 3),
])
def test_connection_outage_is_1_where_exp_underflows(argv, rows_at_1, tmp_path):
    # x overflows to inf in these rows, but exp(-a) = 0 makes the outage exactly 1
    out = tmp_path / "t.csv"
    assert run_cli(["sweep", "--out", str(out)] + argv) == 0
    _, header, rows = read_table(out)
    col = columns(header, rows)
    for name in _CONN_COLUMNS:
        assert np.all(col[name][:rows_at_1] == 1.0), name


def test_zero_rate_with_infinite_1_over_eps_runs(tmp_path, capsys):
    # 1/eps1 overflows to inf; the zero-rate rows must read 0, not nan
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pd": 0, "eps1": 2.225073858507203e-309, "rd": 0, "rs": 0,
                               "axis_points": 3, "mc_samples": 50}))
    out = tmp_path / "t.csv"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    _, header, rows = read_table(out)
    col = columns(header, rows)
    for name in _CONN_COLUMNS:
        assert np.all(col[name] == 0.0), name


@pytest.mark.parametrize("argv", [
    ["--axis", "sigma2", "--axis-min", "1e-320", "--axis-max", "1e-300", "--axis-points", "2"],
    ["--axis", "ps", "--axis-min", "1e300", "--axis-max", "1e300", "--axis-points", "1",
     "--sigma2", "1e-300"],
    ["--axis", "ps", "--axis-min", "1e290", "--axis-max", "1e300", "--axis-points", "2",
     "--eps1", "1e-163", "--eps2", "1e-163"],
])
def test_tiny_k1_argument_runs(argv, tmp_path, capsys):
    # x is subnormal or 0, or eps1*eps2 underflows: x*K1(x) is its limit 1
    out = tmp_path / "t.csv"
    assert run_cli(["sweep", "--out", str(out)] + argv) == 0
    assert capsys.readouterr().err == ""
    _, header, rows = read_table(out)
    col = columns(header, rows)
    for name in _CONN_COLUMNS:
        assert np.all((col[name] >= 0.0) & (col[name] < 1e-100)), name


def test_secrecy_outage_where_ps_eps1_overflows(tmp_path, capsys):
    # ps*eps1 overflows to inf in both rows; the secrecy outage there is 1
    out = tmp_path / "t.csv"
    assert run_cli(["sweep", "--out", str(out), "--axis", "ps", "--axis-min", "1e200",
                    "--axis-max", "1e300", "--axis-points", "2",
                    "--eps1", "1e200", "--eps2", "1e200"]) == 0
    assert capsys.readouterr().err == ""
    _, header, rows = read_table(out)
    assert np.all(columns(header, rows)["p_secrecy"] == 1.0)


def test_nan_af_exponent_is_refused(tmp_path, capsys):
    # AF's a is 0 * inf = nan at ps = 100: refused in one line, not a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sigma2": 5e-324, "eps1": 5e-324,
                               "axis_points": 3, "mc_samples": 50}))
    assert_one_error_line(run_cli(["sweep", "--config", str(cfg)]), capsys)
