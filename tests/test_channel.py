import dataclasses
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from mfrelay import (bessel_k1, channel, p_conn_af, p_conn_cutset_lower, p_conn_mf, p_secrecy,
                     p_secrecy_threshold, rate_report, tradeoff_residual)
from mfrelay.channel import (_BLOCK, _SLICE, ChannelRealization, RateConfig, SystemParams,
                             _ahead, _blocks, _map_blocks, _map_slices, derived_ratios, rng_stream,
                             sample_gains, sample_realization, thresholds)
from mfrelay.latticesim import LatticeConfig


def test_derived_ratios_examples():
    snr, inr, rho = derived_ratios(SystemParams(ps=100, pd=10, sigma2=1))
    assert (snr, inr, rho) == (100.0, 10.0, 0.5)
    _, _, rho = derived_ratios(SystemParams(ps=10, pd=1000, sigma2=1))
    assert rho == pytest.approx(3.0)
    for ps in (2.0, 50.0, 1e6):
        _, _, rho = derived_ratios(SystemParams(ps=ps, pd=ps, sigma2=1))
        assert rho == pytest.approx(1.0)


def test_derived_ratios_where_snr_overflows():
    # snr = 1e310 reads inf, where log(inr)/log(snr) read 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, rho = derived_ratios(SystemParams(ps=1e10, pd=1e5, sigma2=1e-300))
        assert rho == pytest.approx(305 / 310, rel=1e-15)
        p = SystemParams(ps=np.array([1e300, 1e10]), pd=np.array([0.0, 1e10]), sigma2=1e-300)
        _, _, rho = derived_ratios(p)
        assert rho[0] == -np.inf and rho[1] == pytest.approx(1.0, rel=1e-15)


def test_rho_round_trips_over_the_double_range():
    # ps and sigma2 log-uniform on [1e-300, 1e300], rho uniform on [0, 3]; at
    # the points with snr >= 1e4 and a normal pd, _pd_at_rho refused or
    # derived_ratios read 0.0 or nan wherever snr or inr left the double range
    rng = np.random.default_rng(5)
    n = 200_000
    ps, sigma2 = (10.0 ** rng.uniform(-300, 300, n) for _ in range(2))
    rho = rng.uniform(0.0, 3.0, n)
    log_pd = rho * np.log(ps) + (1.0 - rho) * np.log(sigma2)
    keep = ((np.log(ps) - np.log(sigma2) >= np.log(1e4))
            & (log_pd >= np.log(np.finfo(float).tiny)) & (log_pd < np.log(np.finfo(float).max)))
    ps, sigma2, rho = ps[keep], sigma2[keep], rho[keep]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pd = channel._pd_at_rho(ps, sigma2, rho)
        _, _, got = derived_ratios(SystemParams(ps=ps, pd=pd, sigma2=sigma2))
    assert ps.size > 60_000 and np.all(np.abs(got - rho) <= 1e-12)


def test_pd_at_rho_keeps_its_bits_where_snr_is_finite():
    snr = np.logspace(0, 300, 301)
    rho = np.linspace(0.0, 1.0, 301)
    want = np.array([np.float_power(s, r) * 2.0 for s, r in zip(snr, rho)])
    assert channel._pd_at_rho(2.0 * snr, 2.0, rho).tobytes() == want.tobytes()


class TestDirectOrLogs:
    def test_logs_never_run_when_every_point_is_inside(self):
        def logs(*_):
            raise AssertionError("logs ran")

        direct = np.array([1.0, 2.0])
        assert channel._direct_or_logs(np.array([True, True]), direct, logs, direct) is direct
        pair = (direct, 2.0 * direct)
        assert channel._direct_or_logs(True, pair, logs, 1.0) is pair

    def test_a_tuple_is_merged_output_by_output(self):
        inside = np.array([True, False, True])
        a, x = channel._direct_or_logs(inside, (np.zeros(3), np.ones(3)),
                                       lambda la, lb: (la, lb - la), np.e, np.e ** 3)
        assert a.tolist() == [0.0, 1.0, 0.0]
        assert x.tolist() == [1.0, 2.0, 1.0]

    def test_a_scalar_gives_a_numpy_scalar(self):
        got = channel._direct_or_logs(np.False_, np.float64(1.0), lambda lv: lv, 1.0)
        assert type(got) is np.float64 and got == 0.0
        a, x = channel._direct_or_logs(np.False_, (1.0, 2.0), lambda lv: (lv, -lv), 1.0)
        assert type(a) is np.float64 and type(x) is np.float64

    def test_logs_get_ln_0_without_a_warning(self):
        seen = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = channel._direct_or_logs(np.array([False, True]), np.array([7.0, 7.0]),
                                          lambda lv: seen.append(lv) or np.exp(lv),
                                          np.array([0.0, 2.0]))
        assert seen[0][0] == -np.inf
        assert got.tolist() == [0.0, 7.0]


def test_derived_ratios_domain_error():
    with pytest.raises(ValueError):
        derived_ratios(SystemParams(ps=1.0, pd=10, sigma2=1))
    with pytest.raises(ValueError):
        derived_ratios(SystemParams(ps=0.5, pd=10, sigma2=1))


def test_thresholds_examples():
    th = thresholds(RateConfig(rd=0.5, rs=0.5))
    assert (th.gamma_o, th.gamma_1, th.gamma_s) == (1.0, 1.5, 0.0)
    th = thresholds(RateConfig(rd=1.0, rs=0.5))
    assert (th.gamma_o, th.gamma_1, th.gamma_s) == (3.0, 3.5, 1.0)
    th = thresholds(RateConfig(rd=0.0, rs=0.0))
    assert (th.gamma_o, th.gamma_1, th.gamma_s) == (0.0, 0.5, 0.0)


def test_threshold_gap_is_exactly_half():
    rng = np.random.default_rng(11)
    for _ in range(200):
        rd = rng.uniform(0, 8)
        th = thresholds(RateConfig(rd=rd, rs=rng.uniform(0, rd)))
        assert th.gamma_1 - th.gamma_o == 0.5


def test_param_validation():
    with pytest.raises(ValueError):
        SystemParams(ps=-1.0, pd=0.0, sigma2=1.0)
    with pytest.raises(ValueError):
        SystemParams(ps=1.0, pd=-0.1, sigma2=1.0)
    with pytest.raises(ValueError):
        SystemParams(ps=1.0, pd=0.0, sigma2=0.0)
    with pytest.raises(ValueError):
        SystemParams(ps=np.inf, pd=0.0, sigma2=1.0)
    with pytest.raises(ValueError):
        RateConfig(rd=0.5, rs=0.6)
    # a sign is exactly +1 or -1: one within rounding of 1 is refused too
    for sign in (0.0, 2.0, np.nan, 1.0 + 1e-12, np.array([1.0, 0.5, -1.0])):
        for name in ("sign1", "sign2"):
            with pytest.raises(ValueError, match="must be finite|signs must be"):
                ChannelRealization(g1=1.0, g2=1.0, **{name: sign})


def test_realization_from_gains_signs():
    real = ChannelRealization.from_gains(4.0, 9.0, sign1=-1.0)
    assert (real.h1, real.h2) == (-2.0, 3.0)
    assert (real.g1, real.g2) == (4.0, 9.0)
    # the record holds gains and signs; ==, repr and astuple show the signs
    assert dataclasses.astuple(real) == (4.0, 9.0, -1.0, 1.0)
    assert repr(real) == "ChannelRealization(g1=4.0, g2=9.0, sign1=-1.0, sign2=1.0)"
    assert real == ChannelRealization(4.0, 9.0, -1.0) != ChannelRealization(4.0, 9.0)


def test_amplitudes_are_each_sign_times_the_root_of_its_gain():
    g1, g2 = np.random.default_rng(8).exponential(1.0, (2, 1000))
    sign = np.where(np.arange(1000) % 3, 1.0, -1.0)
    for s1, s2 in ((1.0, 1.0), (-1.0, 1.0), (sign, -1.0), (sign, sign[::-1])):
        real = ChannelRealization.from_gains(g1, g2, s1, s2)
        assert real.h1.tobytes() == (s1 * np.sqrt(g1)).tobytes()
        assert real.h2.tobytes() == (s2 * np.sqrt(g2)).tobytes()
        one = ChannelRealization.from_gains(g1[3], g2[3], np.ravel(s1)[-1], np.ravel(s2)[-1])
        assert np.float64(one.h1).tobytes() == (np.ravel(s1)[-1] * np.sqrt(g1[3])).tobytes()


def test_from_gains_holds_float64_arrays_without_a_copy():
    g1, g2 = np.linspace(0.0, 2.0, 5), np.ones(5)
    real = ChannelRealization.from_gains(g1, g2, np.ones(5))
    assert real.g1 is g1 and real.g2 is g2
    assert ChannelRealization.from_gains([1, 2], 3).g1.dtype == np.float64


@pytest.mark.parametrize("value", ["4", True, None, np.array([True, False]), np.array(["1", "2"])])
def test_from_gains_passes_what_is_not_a_number_on_to_be_refused(value):
    # it used to turn "4" and bools into floats that the record would refuse
    for args in ((value, 1.0), (1.0, value), (1.0, 1.0, value), (1.0, 1.0, 1.0, value)):
        with pytest.raises(ValueError, match="channel realization must be finite"):
            ChannelRealization.from_gains(*args)
        with pytest.raises(ValueError, match="channel realization must be finite"):
            ChannelRealization(*args)


def test_fields_that_do_not_broadcast_are_refused_at_construction():
    # they used to pass here and fail only when a rate was formed
    with pytest.raises(ValueError, match="broadcast"):
        ChannelRealization.from_gains([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="broadcast"):
        ChannelRealization.from_gains(1.0, 2.0, np.ones(3), np.ones(2))


@pytest.mark.parametrize("sign, rows", [(1.0, 0.25), (None, 1.25)])
def test_from_gains_allocates_a_fraction_of_a_row(sign, rows):
    # its checks make boolean temporaries; no amplitude array is formed
    n = 1 << 18
    g1, g2 = np.random.default_rng(9).exponential(1.0, (2, n))
    sign = np.where(np.arange(n) % 2, 1.0, -1.0) if sign is None else sign
    ChannelRealization.from_gains(g1[:2], g2[:2], 1.0)  # one-time setup left out
    tracemalloc.start()
    try:
        ChannelRealization.from_gains(g1, g2, sign)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= rows * g1.nbytes


@pytest.mark.parametrize("gains", [(-1.0, 1.0), (1.0, np.array([2.0, -0.5]))])
def test_negative_gain_is_refused_without_a_warning(gains):
    # sqrt used to warn on it, and the NaN amplitude was then refused as not finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gains must be nonnegative"):
            ChannelRealization.from_gains(*gains)


def test_sampling_determinism():
    params = SystemParams(ps=10, pd=10, sigma2=1, eps1=2.0, eps2=0.5)
    a = sample_realization(params, rng_stream(123), size=64)
    b = sample_realization(params, rng_stream(123), size=64)
    assert np.array_equal(a.g1, b.g1) and np.array_equal(a.h2, b.h2)
    c = sample_realization(params, rng_stream(124), size=64)
    assert not np.array_equal(a.g1, c.g1)


_UINT64 = st.integers(0, 2 ** 64 - 1)


@given(_UINT64, st.one_of(st.none(), _UINT64,
                          st.lists(_UINT64, min_size=1, max_size=3).map(tuple)))
def test_rng_stream_equals_the_hand_built_philox_key(seed, index):
    # the key as rng_stream built it before numpy's own Philox seeding took over
    if index is None:
        key = (int(seed),)
    elif np.ndim(index) == 0:
        key = (int(seed), int(index))
    else:
        key = (int(seed), *(int(i) for i in index))
    want = np.random.Philox(key=np.random.SeedSequence(key).generate_state(2, np.uint64))
    got = rng_stream(seed, index).bit_generator
    assert np.array_equal(got.random_raw(8), want.random_raw(8))


@pytest.mark.parametrize("seed, index", [(1.5, None), (1, (0, 2.7)), (1, 0.5), (np.nan, None),
                                         ("1", None), (True, None)])
def test_rng_stream_refuses_what_is_not_a_whole_number(seed, index):
    with pytest.raises(ValueError, match="rng_stream (seed|index entry) must be a whole number"):
        rng_stream(seed, index)


@pytest.mark.parametrize("seed, index", [(-1, None), (1, -3), (1, (0, -2)), (-1.0, 0)])
def test_rng_stream_refuses_a_negative_seed_or_index_entry(seed, index):
    with pytest.raises(ValueError, match=r"rng_stream (seed|index entry) must be a whole "
                                         r"number >= 0, not -"):
        rng_stream(seed, index)


def test_rng_stream_takes_whole_floats_and_numpy_ints_as_ints():
    want = rng_stream(1, (0, 2)).random(8).tobytes()
    for seed, index in ((1.0, (0, 2)), (np.int64(1), (np.int64(0), 2.0)),
                        (np.float32(1), (0, np.float32(2)))):
        assert rng_stream(seed, index).random(8).tobytes() == want


_RECORDS = {
    "SystemParams": lambda v: SystemParams(ps=v, pd=1.0, sigma2=1.0),
    "RateConfig": lambda v: RateConfig(rd=v, rs=0.0),
    "LatticeConfig": lambda v: LatticeConfig(ps=v, n_symbols=10),
    "ChannelRealization": lambda v: ChannelRealization(g1=v, g2=1.0),
}


@pytest.mark.parametrize("record", sorted(_RECORDS))
def test_records_refuse_fields_that_are_not_real_numbers(record):
    # np.isfinite used to raise a TypeError on a str, and a bool counted as 1
    make = _RECORDS[record]
    for value in ("1", True, None, 1 + 0j, [1.0], np.array([True]), np.array(["1"])):
        with pytest.raises(ValueError):
            make(value)
    for value in (2, 2.0, np.int64(2), np.float32(2.0), np.array(2.0), np.array([2])):
        make(value)


def test_substreams_are_independent():
    params = SystemParams(ps=10, pd=10, sigma2=1)
    a = sample_gains(params, rng_stream(9, 0), 32)[0]
    b = sample_gains(params, rng_stream(9, 1), 32)[0]
    assert not np.array_equal(a, b)


def test_sample_moments():
    params = SystemParams(ps=10, pd=10, sigma2=1, eps1=1.7, eps2=0.4)
    n = 10 ** 6
    real = sample_realization(params, rng_stream(2024), size=n)
    # mean of g1 within 5 standard errors of eps1 (exponential: std = mean)
    se1 = params.eps1 / np.sqrt(n)
    assert abs(real.g1.mean() - params.eps1) < 5 * se1
    # exponential median: P(g2 > eps2 ln 2) = 1/2
    frac = np.mean(real.g2 > params.eps2 * np.log(2.0))
    assert abs(frac - 0.5) < 5 * np.sqrt(0.25 / n)
    # signs are fair coins
    assert abs(np.mean(real.h1 > 0) - 0.5) < 5 * np.sqrt(0.25 / n)
    # amplitudes square back to the gains
    assert np.allclose(real.h1 ** 2, real.g1, rtol=1e-12)


def test_gains_pass_chisquare_gof():
    params = SystemParams(ps=1, pd=0, sigma2=1, eps1=1.3, eps2=0.8)
    n = 10 ** 6
    real = sample_realization(params, rng_stream(77), size=n)
    nbins = 32
    qs = np.linspace(0, 1, nbins + 1)
    for g, eps in ((real.g1, params.eps1), (real.g2, params.eps2)):
        edges = -eps * np.log1p(-qs[:-1])  # exponential quantiles
        edges = np.append(edges, np.inf)
        counts = np.histogram(g, bins=edges)[0]
        pvalue = chisquare(counts).pvalue
        assert pvalue > 1e-3


def test_realization_draws_gains_then_signs():
    # the draw order written out: gains g1, g2 from sample_gains, then the two signs
    params = SystemParams(ps=10, pd=10, sigma2=1, eps1=2.0, eps2=0.5)
    for size in (None, 64):
        rng = rng_stream(5, 3)
        g1, g2 = sample_gains(params, rng, size)
        s1 = 2.0 * rng.integers(0, 2, size) - 1.0
        s2 = 2.0 * rng.integers(0, 2, size) - 1.0
        real = sample_realization(params, rng_stream(5, 3), size)
        for got, want in ((real.g1, g1), (real.g2, g2),
                          (real.h1, s1 * np.sqrt(g1)), (real.h2, s2 * np.sqrt(g2))):
            assert np.asarray(got).tobytes() == np.asarray(want, dtype=float).tobytes()
    assert type(sample_realization(params, rng_stream(5)).g1) is float


@given(st.one_of(st.integers(1, 3 * _BLOCK + 1),
                 st.sampled_from([1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 3 * _BLOCK])))
def test_blocks_partition_draws(n):
    blocks = list(_blocks(n))
    assert [index for index, _ in blocks] == list(range(len(blocks)))
    sizes = [size for _, size in blocks]
    assert sum(sizes) == n
    assert all(size == _BLOCK for size in sizes[:-1])
    assert 1 <= sizes[-1] <= _BLOCK
    assert _BLOCK == 2 ** 17


@pytest.mark.parametrize("residue", range(4))
@settings(max_examples=8, deadline=None)
@given(steps=st.integers(0, _BLOCK), drawn=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1),
       size=st.one_of(st.sampled_from([1, _BLOCK]), st.integers(1, _BLOCK)))
def test_ahead_draws_what_the_stream_draws_after_k_outputs(residue, steps, drawn, seed, size):
    # k raw outputs on, as k uniforms would leave the stream, from a fresh
    # generator (the O(1) jump) or one with outputs in its buffer
    k = 4 * steps + residue
    rng = rng_stream(seed, 3)
    rng.random(drawn + k)
    want = rng.random(size), rng.standard_normal(size)
    start = rng_stream(seed, 3)
    start.random(drawn)
    ahead = _ahead(start, k)
    got = ahead.random(size), ahead.standard_normal(size)
    assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    # the generator copied from does not move
    rng = rng_stream(seed, 3)
    rng.random(drawn)
    assert start.random(8).tobytes() == rng.random(8).tobytes()


class TestMapBlocks:
    """The block runner: index order, the caller's errstate and thread, one
    buffer per thread, and failures, with more workers than blocks in flight."""

    N = 5 * _BLOCK + 7  # six blocks, the last one ragged

    @pytest.fixture(autouse=True)
    def three_workers(self):
        with mock.patch.object(channel, "_WORKERS", 3):
            yield

    def test_results_in_index_order(self):
        def fn(index, buf):
            time.sleep(0.02 * (index == 0))  # block 0 finishes last
            return index, buf.shape

        want = [(index, (2, size)) for index, size in _blocks(self.N)]
        assert _map_blocks(fn, self.N, lambda row, index: index, 2) == want

    def test_blocks_see_the_callers_errstate(self):
        with np.errstate(over="raise", under="ignore"):
            caller = np.geterr()
            seen = _map_blocks(lambda rng, buf: np.geterr(), self.N, lambda row, index: index, 1)
        assert seen == [caller] * 6

    def test_streams_called_in_the_callers_thread(self):
        callers = []

        def streams(row, index):
            callers.append(threading.get_ident())
            return index

        _map_blocks(lambda rng, buf: None, self.N, streams, 1)
        assert callers == [threading.get_ident()] * 6

    def test_one_buffer_per_thread(self):
        seen = _map_blocks(lambda rng, buf: (threading.get_ident(), id(buf.base)),
                           self.N, lambda row, index: index, 1)
        buffers = {}
        for thread, buffer in seen:
            buffers.setdefault(thread, set()).add(buffer)
        assert threading.get_ident() not in buffers
        assert all(len(ids) == 1 for ids in buffers.values())

    def test_a_failing_block_raises_in_the_caller(self):
        n = 40 * _BLOCK
        error = RuntimeError("block 1")
        ran = []

        def fn(index, buf):
            ran.append(index)
            if index == 1:
                raise error
            time.sleep(0.01)

        with pytest.raises(RuntimeError) as caught:
            _map_blocks(fn, n, lambda row, index: index, 1)
        assert caught.value is error
        assert len(ran) < 40  # blocks not yet started were not run

    def test_rows_come_back_in_row_then_index_order(self):
        def fn(key, buf):
            time.sleep(0.02 * (key == (0, 0)))  # row 0's first block finishes last
            return key, buf.shape

        want = [((row, index), (2, size)) for row in range(3) for index, size in _blocks(self.N)]
        assert _map_blocks(fn, self.N, lambda row, index: (row, index), 2, 3) == want

    def test_a_failing_block_in_a_later_row_raises_in_the_caller(self):
        n = 10 * _BLOCK  # 10 blocks in each of 4 rows
        error = RuntimeError("row 2, block 1")
        ran = []

        def fn(key, buf):
            ran.append(key)
            if key == (2, 1):
                raise error
            time.sleep(0.01)

        with pytest.raises(RuntimeError) as caught:
            _map_blocks(fn, n, lambda row, index: (row, index), 1, 4)
        assert caught.value is error
        # block 22 of 40 failed; at most 2 per thread had been submitted past it
        assert len(ran) <= 22 + 2 * 3 and (3, 9) not in ran


def test_import_leaves_the_thread_pool_and_logging_unloaded():
    code = ("import sys, mfrelay; "
            "print([m for m in ('concurrent.futures', 'logging') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def _every_bulk_form(n):
    """Call every form that runs on _map_slices once, on n points."""
    x = np.linspace(1.0, 2.0, n)
    params, rc = SystemParams(ps=10.0 * x, pd=x, sigma2=1.0), RateConfig(rd=x, rs=0.5 * x)
    real = ChannelRealization.from_gains(x, 2.0 * x)
    for form in (p_conn_mf, p_conn_af, p_conn_cutset_lower):
        form(params, rc.rd)
    p_secrecy(params, rc)
    p_secrecy_threshold(params, x)
    tradeoff_residual(params, rc)
    rate_report(params, real).gap  # a report forms a field on its first read
    bessel_k1(x)


class TestMapSlices:
    """The slice driver of the bulk closed forms: a call of one slice runs
    the kernel as it is; a larger one runs it on slices, in the caller
    within one block and on one pool over more, into one preallocated array
    per output."""

    N = 2 * _BLOCK + 1  # three blocks, so two workers

    @pytest.fixture(autouse=True)
    def two_workers(self):
        with mock.patch.object(channel, "_WORKERS", 2):
            yield

    @staticmethod
    def recording(calls):
        def kernel(x, c):
            calls.append((x, c, threading.get_ident()))
            return x + c
        return kernel

    def test_one_slice_runs_the_kernel_on_the_args_themselves(self):
        calls = []
        x = np.arange(float(_SLICE))
        assert _map_slices(self.recording(calls), x, 1.0).tobytes() == (x + 1.0).tobytes()
        assert len(calls) == 1 and calls[0][0] is x and calls[0][2] == threading.get_ident()

    @pytest.mark.parametrize("n", [_SLICE + 1, N])
    def test_a_larger_call_runs_the_kernel_on_slices(self, n):
        calls = []
        x = np.arange(float(n))
        assert _map_slices(self.recording(calls), x, 1.0).tobytes() == (x + 1.0).tobytes()
        sizes = [c.size for c, _, _ in calls]
        assert len(sizes) > 1 and max(sizes) <= _SLICE and sum(sizes) == n
        assert all(c == 1.0 for _, c, _ in calls)
        threads = {thread for _, _, thread in calls}
        if n > _BLOCK:
            assert threading.get_ident() not in threads and len(threads) <= 2
        else:
            assert threads == {threading.get_ident()}

    def test_more_workers_than_cores_write_every_slice_once(self):
        # eight threads switching every 10 us write disjoint slices of one output
        n = 8 * _BLOCK + 1
        x = np.arange(float(n))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with mock.patch.object(channel, "_WORKERS", 8):
                got = _map_slices(lambda x, c: x * c, x, 3.0)
        finally:
            sys.setswitchinterval(interval)
        assert got.tobytes() == (x * 3.0).tobytes()

    def test_a_call_within_one_block_starts_no_pool(self):
        with mock.patch("concurrent.futures.ThreadPoolExecutor", side_effect=AssertionError):
            for n in (1, _SLICE, _BLOCK):
                _every_bulk_form(n)
            assert type(p_conn_mf(SystemParams(ps=10.0, pd=1.0, sigma2=1.0), 1.0)) is float

    def test_a_larger_call_starts_one_pool(self):
        # every kernel runs on a slice, so none starts a pool of its own
        from concurrent.futures import ThreadPoolExecutor

        with mock.patch("concurrent.futures.ThreadPoolExecutor",
                        side_effect=ThreadPoolExecutor) as spy:
            _every_bulk_form(self.N)
        # one per form; from_gains starts none, since it forms no amplitude
        assert spy.call_count == 8 + 0

    def test_outputs_take_the_broadcast_shape_and_the_kernel_bits(self):
        a, b = np.linspace(0.0, 1.0, 3)[:, None], np.linspace(1.0, 2.0, _BLOCK)[None, :]
        total = _map_slices(lambda a, b: a + b, a, b)
        product = _map_slices(lambda a, b, c: a * b * c, a, b, 2.0)
        assert total.shape == product.shape == (3, _BLOCK)
        assert total.tobytes() == (a + b).tobytes() and product.tobytes() == (a * b * 2.0).tobytes()

    def test_a_field_that_broadcasts_is_gathered_one_slice_at_a_time(self):
        # a column of ps and a row of pd, gathered slice by slice: neither is formed whole
        v = np.linspace(1.0, 100.0, 2000)
        params = SystemParams(ps=v[:, None], pd=v[None, :], sigma2=1.0)
        with mock.patch.object(channel, "_WORKERS", 1):
            tracemalloc.start()
            try:
                out = p_conn_af(params, 1.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert out.shape == (2000, 2000) and peak <= 1.25 * out.nbytes
        # a strided field is gathered the same way, to the same bits
        x = np.arange(2.0 * self.N)
        assert _map_slices(lambda x: x * 3.0, x[::2]).tobytes() == (x[::2] * 3.0).tobytes()

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_record_reaches_the_kernel_as_a_record_of_its_slices(self, workers):
        rng = np.random.default_rng(4)
        params = SystemParams(ps=rng.uniform(1.0, 2.0, (3, 1)), pd=rng.uniform(0.0, 1.0, _BLOCK),
                              sigma2=2.0, eps1=rng.uniform(1.0, 2.0, (3, _BLOCK)),
                              eps2=rng.uniform(1.0, 2.0, (1, _BLOCK)))
        index = np.arange(3.0 * _BLOCK).reshape(3, _BLOCK)
        seen = []

        def kernel(p, index):
            seen.append((index, p))
            return (p.ps + p.pd * p.eps1) / p.sigma2 - p.eps2 * index

        with mock.patch.object(channel, "_WORKERS", workers):
            got = _map_slices(kernel, params, index)
        cut = sorted(seen, key=lambda item: item[0][0])
        assert all(type(p) is SystemParams and p.sigma2 == 2.0 and type(p.sigma2) is float
                   and p.ps.shape == p.pd.shape == p.eps1.shape == p.eps2.shape == i.shape
                   and i.size <= _SLICE for i, p in cut)
        for name, value in vars(params).items():
            if name != "sigma2":
                whole = np.concatenate([getattr(p, name) for _, p in cut])
                assert whole.tobytes() == np.broadcast_to(value, index.shape).tobytes(), name
        assert got.shape == index.shape and got.tobytes() == kernel(params, index).tobytes()

    def test_a_0d_call_returns_a_python_float(self):
        got = _map_slices(lambda x, c: x * c, np.float64(2.0), np.array(3.0))
        assert type(got) is float and got == 6.0
        params = SystemParams(ps=np.float64(3.0), pd=0.0, sigma2=np.array(2.0))
        got = _map_slices(lambda p: p.ps / p.sigma2, params)
        assert type(got) is float and got == 1.5

    def test_a_failing_slice_raises_in_the_caller(self):
        def kernel(x):
            if x[-1] == self.N - 1:
                raise ZeroDivisionError("last slice")
            return x

        with pytest.raises(ZeroDivisionError, match="last slice"):
            _map_slices(kernel, np.arange(float(self.N)))

    def test_an_overflow_warning_in_a_worker_slice_reaches_the_caller(self):
        # only the last slice overflows (ps*ps in AF's end-to-end SNR)
        ps = np.ones(self.N)
        ps[-1] = 1e300
        params = SystemParams(ps=ps, pd=1.0, sigma2=1.0)
        real = ChannelRealization.from_gains(1.0, 1.0)
        with pytest.warns(RuntimeWarning, match="overflow"):
            rate_report(params, real).snr_af
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="overflow"):
                rate_report(params, real).snr_af

    def test_an_overflow_warning_in_a_worker_slice_is_an_error_under_w_error(self):
        code = ("import numpy as np; from mfrelay import channel, ChannelRealization, "
                "SystemParams, rate_report; channel._WORKERS = 2; "
                "ps = np.ones(2 * channel._BLOCK + 1); ps[-1] = 1e300; "
                "rate_report(SystemParams(ps=ps, pd=1.0, sigma2=1.0), "
                "ChannelRealization.from_gains(1.0, 1.0)).snr_af")
        proc = subprocess.run([sys.executable, "-W", "error", "-c", code], capture_output=True,
                              text=True)
        assert proc.returncode == 1
        assert proc.stderr.splitlines()[-1].startswith("RuntimeWarning: overflow")
