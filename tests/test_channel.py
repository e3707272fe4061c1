import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chisquare

from mfrelay import channel
from mfrelay.channel import (_BLOCK, ChannelRealization, RateConfig, SystemParams, _blocks,
                             _map_blocks, derived_ratios, rng_stream, sample_gains,
                             sample_realization, thresholds)


def test_derived_ratios_examples():
    snr, inr, rho = derived_ratios(SystemParams(ps=100, pd=10, sigma2=1))
    assert (snr, inr, rho) == (100.0, 10.0, 0.5)
    _, _, rho = derived_ratios(SystemParams(ps=10, pd=1000, sigma2=1))
    assert rho == pytest.approx(3.0)
    for ps in (2.0, 50.0, 1e6):
        _, _, rho = derived_ratios(SystemParams(ps=ps, pd=ps, sigma2=1))
        assert rho == pytest.approx(1.0)


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
    with pytest.raises(ValueError):
        ChannelRealization(g1=1.0, g2=1.0, h1=2.0, h2=1.0)


def test_realization_from_gains_signs():
    real = ChannelRealization.from_gains(4.0, 9.0, sign1=-1.0)
    assert (real.h1, real.h2) == (-2.0, 3.0)
    assert (real.g1, real.g2) == (4.0, 9.0)


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


@pytest.mark.parametrize("m", [_BLOCK, 12345])
def test_gains_drawn_into_a_buffer_equal_fresh_draws(m):
    params = SystemParams(ps=10, pd=10, sigma2=1, eps1=1.7, eps2=0.3)
    buf = np.empty((2, _BLOCK))
    got = sample_gains(params, rng_stream(8, 2), m, out=buf[:, :m])
    want = sample_gains(params, rng_stream(8, 2), m)
    for g, w in zip(got, want):
        assert g.base is buf and g.tobytes() == w.tobytes()


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
        assert _map_blocks(fn, self.N, lambda index: index, 2) == want

    def test_blocks_see_the_callers_errstate(self):
        with np.errstate(over="raise", under="ignore"):
            caller = np.geterr()
            seen = _map_blocks(lambda rng, buf: np.geterr(), self.N, lambda index: index, 1)
        assert seen == [caller] * 6

    def test_streams_called_in_the_callers_thread(self):
        callers = []

        def streams(index):
            callers.append(threading.get_ident())
            return index

        _map_blocks(lambda rng, buf: None, self.N, streams, 1)
        assert callers == [threading.get_ident()] * 6

    def test_one_buffer_per_thread(self):
        seen = _map_blocks(lambda rng, buf: (threading.get_ident(), id(buf.base)),
                           self.N, lambda index: index, 1)
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
            _map_blocks(fn, n, lambda index: index, 1)
        assert caught.value is error
        assert len(ran) < 40  # blocks not yet started were not run
