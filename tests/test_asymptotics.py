import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mfrelay.asymptotics import (DEFAULT_SNR_GRID, Scheme, estimate_gsdof, estimate_gsdg,
                                 gsdg_closed_form, gsdof_closed_form)
from mfrelay.channel import ChannelRealization, RateConfig, SystemParams
from mfrelay.numerics import slope_fit
from mfrelay.outage import p_conn_af, p_conn_cutset_lower, p_conn_mf, p_secrecy
from mfrelay.rates import rate_report

RHO_GRID = (0.0, 0.5, 1.0, 1.25, 1.5, 2.0, 2.5, 3.0)


class TestClosedForms:
    def test_gsdof_branch_values(self):
        assert gsdof_closed_form(Scheme.MF, 0.5) == 0.25
        assert gsdof_closed_form(Scheme.MF, 2.0) == 0.5
        assert gsdof_closed_form(Scheme.AF, 1.5) == 0.25
        assert gsdof_closed_form(Scheme.AF, 2.5) == 0.0
        assert gsdof_closed_form(Scheme.AF, 1.0) == 0.5  # the AF peak

    def test_gsdg_branch_values(self):
        assert gsdg_closed_form(Scheme.MF, 3.0) == 1.0
        assert gsdg_closed_form(Scheme.MF, 1.0) == 0.0
        assert gsdg_closed_form(Scheme.AF, 1.5) == 0.5  # the AF diversity peak
        assert gsdg_closed_form(Scheme.AF, 2.0) == 0.0

    def test_mf_equals_upper_pointwise(self):
        for rho in np.linspace(0, 4, 41):
            assert gsdof_closed_form(Scheme.MF, rho) == gsdof_closed_form(Scheme.UPPER, rho)
            assert gsdg_closed_form(Scheme.MF, rho) == gsdg_closed_form(Scheme.UPPER, rho)

    def test_af_never_exceeds_mf(self):
        for rho in np.linspace(0, 4, 41):
            assert gsdof_closed_form(Scheme.AF, rho) <= gsdof_closed_form(Scheme.MF, rho)
            assert gsdg_closed_form(Scheme.AF, rho) <= gsdg_closed_form(Scheme.MF, rho)

    def test_continuity_at_branch_boundaries(self):
        eps = 1e-13
        for fn, boundaries in ((gsdof_closed_form, (1.0, 2.0)),
                               (gsdg_closed_form, (1.0, 1.5, 2.0))):
            for scheme in (Scheme.UPPER, Scheme.MF, Scheme.AF):
                for b in boundaries:
                    lo = fn(scheme, b - eps)
                    hi = fn(scheme, b + eps)
                    assert abs(hi - lo) < 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            gsdof_closed_form(Scheme.MF, -0.1)
        with pytest.raises(ValueError):
            gsdg_closed_form(Scheme.AF, -1.0)


class TestNumericEstimators:
    def test_gsdof_matches_closed_forms_on_grid(self):
        for scheme in (Scheme.UPPER, Scheme.MF, Scheme.AF):
            for rho in RHO_GRID:
                est = estimate_gsdof(scheme, rho)
                assert est == pytest.approx(gsdof_closed_form(scheme, rho), abs=0.05), \
                    f"{scheme} rho={rho}"

    def test_gsdg_matches_closed_forms_on_grid(self):
        for scheme in (Scheme.UPPER, Scheme.MF, Scheme.AF):
            for rho in RHO_GRID:
                est = estimate_gsdg(scheme, rho)
                assert est == pytest.approx(gsdg_closed_form(scheme, rho), abs=0.1), \
                    f"{scheme} rho={rho}"

    def test_gsdof_estimate_realization_independent(self):
        for real in (ChannelRealization.from_gains(0.2, 5.0),
                     ChannelRealization.from_gains(4.0, 0.5)):
            est = estimate_gsdof(Scheme.MF, 2.0, real=real)
            assert est == pytest.approx(0.5, abs=0.05)

    def test_gsdg_config_dependence_is_subleading(self):
        est = estimate_gsdg(Scheme.MF, 3.0, config=RateConfig(rd=2.0, rs=1.0))
        assert est == pytest.approx(1.0, abs=0.1)

    def test_gsdg_of_a_flat_fit_is_positive_zero(self):
        # negating a zero slope gave -0.0
        config = RateConfig(rd=30.0, rs=0.5)
        flat = estimate_gsdg(Scheme.MF, 1.5, config=config)
        assert flat == 0.0 and not np.signbit(flat)
        out = estimate_gsdg(Scheme.MF, [1.5, 1.5], config=config)
        assert np.array_equal(out, [0.0, 0.0]) and not np.any(np.signbit(out))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            estimate_gsdof(Scheme.MF, 1.0, snr_grid=[10.0, 100.0])  # min below 1e4
        with pytest.raises(ValueError):
            estimate_gsdof(Scheme.MF, 1.0, snr_grid=[1e6, 1e6])  # not increasing
        with pytest.raises(ValueError):
            estimate_gsdof(Scheme.MF, -1.0)

    @pytest.mark.parametrize("grid", [[1e5], [[1e5, 1e6], [1e7, 1e8]]])
    def test_grid_must_be_1d_with_two_points(self, grid):
        # one point has no slope, and a 2-d grid is not an SNR axis
        with pytest.raises(ValueError, match="snr_grid must be a 1-d grid with >= 2 points"):
            estimate_gsdof(Scheme.MF, 1.0, snr_grid=grid)

    def test_gsdof_refuses_an_array_realization(self):
        # one as long as the grid would broadcast along it: a realization per snr
        g = np.linspace(0.5, 2.0, len(DEFAULT_SNR_GRID))
        for real in (ChannelRealization.from_gains(g, g[::-1]),
                     ChannelRealization.from_gains(1.0, 1.0, sign1=np.array([1.0, -1.0]))):
            with pytest.raises(ValueError, match="estimate_gsdof runs one realization: "
                                                 "scalar gains and signs"):
                estimate_gsdof(Scheme.MF, 1.0, real=real)

    def test_gsdg_refuses_an_array_rate_pair(self):
        rd = np.linspace(0.5, 3.0, len(DEFAULT_SNR_GRID))
        for config in (RateConfig(rd, rd / 2), RateConfig(2.0, np.array([0.5, 1.0]))):
            with pytest.raises(ValueError, match="estimate_gsdg runs one rate pair: scalar rd and rs"):
                estimate_gsdg(Scheme.MF, 1.5, config=config)


@pytest.mark.parametrize("fn", [gsdof_closed_form, gsdg_closed_form, estimate_gsdof,
                                estimate_gsdg])
@pytest.mark.parametrize("scheme", ["mf", None])
def test_a_value_that_is_not_a_scheme_is_refused(fn, scheme):
    # each dispatch's last branch used to read it as that branch's scheme
    with pytest.raises(ValueError, match=re.escape(f"scheme must be a Scheme, not {scheme!r}")):
        fn(scheme, 1.5)


def _gsdof_per_snr(scheme, rho, real):
    """Reference: one scalar SystemParams per grid point."""
    field = {Scheme.UPPER: "upper_bound_u", Scheme.MF: "rs_mf", Scheme.AF: "rs_af"}[scheme]
    ys = []
    for snr in DEFAULT_SNR_GRID:
        params = SystemParams(ps=snr, pd=snr ** rho, sigma2=1.0)
        ys.append(getattr(rate_report(params, real), field) * np.log(2.0))
    return slope_fit(np.log(DEFAULT_SNR_GRID), ys)


def _gsdg_per_snr(scheme, rho, config):
    conn = {Scheme.UPPER: p_conn_cutset_lower, Scheme.MF: p_conn_mf,
            Scheme.AF: p_conn_af}[scheme]
    ys = []
    for snr in DEFAULT_SNR_GRID:
        params = SystemParams(ps=snr, pd=snr ** rho, sigma2=1.0)
        ys.append(np.log(max(conn(params, config.rd), p_secrecy(params, config))))
    return 0.0 - slope_fit(np.log(DEFAULT_SNR_GRID), ys)


@pytest.mark.parametrize("scheme", [Scheme.UPPER, Scheme.MF, Scheme.AF])
@pytest.mark.parametrize("rho", [0.5, 1.25, 1.75, 3.0])
def test_estimators_equal_per_snr_loop(scheme, rho):
    # one array-valued evaluation of the grid matches a walk over its points
    real = ChannelRealization.from_gains(0.3, 2.0)
    config = RateConfig(rd=1.5, rs=0.25)
    assert estimate_gsdof(scheme, rho, real=real) == pytest.approx(
        _gsdof_per_snr(scheme, rho, real), rel=1e-12, abs=0)
    assert estimate_gsdg(scheme, rho, config=config) == pytest.approx(
        _gsdg_per_snr(scheme, rho, config), rel=1e-12, abs=0)


def test_overflowing_rho_is_refused_by_name_without_a_warning():
    # pd = snr^rho overflows at the grid's top: a ValueError names rho, and
    # no overflow RuntimeWarning comes first
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for estimate in (estimate_gsdof, estimate_gsdg):
            with pytest.raises(ValueError, match="rho is too large"):
                estimate(Scheme.MF, 26.0)
            with pytest.raises(ValueError, match="rho is too large"):
                estimate(Scheme.MF, [1.0, 26.0])


_DIGEST = """
import hashlib
import numpy as np
from mfrelay import Scheme, estimate_gsdg, estimate_gsdof
rho = np.linspace(0.0, 3.0, 200)
out = [estimate_gsdof(s, rho) for s in Scheme] + [estimate_gsdg(s, rho[rho > 1.0]) for s in Scheme]
print(hashlib.sha256(b"".join(v.tobytes() for v in out)).hexdigest())
"""


def test_estimator_bits_do_not_depend_on_the_openblas_core_type():
    # OpenBLAS picks its kernels, and so their last bits, per CPU core type;
    # OPENBLAS_CORETYPE forces one in each child.  The fits make no BLAS call,
    # so every child prints the same digest.
    digests = set()
    for core in (None, "SkylakeX", "Haswell", "Sandybridge", "Katmai"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        proc = subprocess.run([sys.executable, "-c", _DIGEST], capture_output=True, text=True,
                              env=env, check=True, timeout=120)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1, digests
