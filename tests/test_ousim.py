"""Sampler correctness: exact laws, stream discipline, bitwise contracts."""

import math
import sys
import threading
import time

import numpy as np
import pytest
from numpy.random import Generator, Philox
from scipy.integrate import quad
from scipy.stats import kstest, norm

import oulab.ousim as S
from oulab.constants import DriftSpectrum, TAIL_UNBOUNDED
from oulab.errors import DomainError

P_FLOOR = 1e-3  # KS rejection level shared with the acceptance suite


def _last_column(lam, n_paths, m=8, seed=123, domain=S.DOMAIN_PATH, horizon=1.0):
    cols = []
    for block in range(0, -(-n_paths // S.BLOCK)):
        z = S.block_paths_1d(lam, m, seed, 0, block, horizon=horizon, domain=domain)
        cols.append(z[:, -1])
    return np.concatenate(cols)[:n_paths]


class TestStreamKeys:
    def test_key_packing_distinct(self):
        seen = set()
        for component in (0, 1, 7):
            for block in (0, 1, 300):
                for domain in (0, 1, 2):
                    key = S.stream_key(99, component, block, domain)
                    assert key.dtype == np.uint64 and key.shape == (2,)
                    seen.add((int(key[0]), int(key[1])))
        assert len(seen) == 27

    def test_seed_is_word_zero(self):
        key = S.stream_key(12345, 6, 7, 2)
        assert int(key[0]) == 12345
        assert int(key[1]) == (2 << 56) | (6 << 32) | 7

    def test_width_validation(self):
        with pytest.raises(DomainError):
            S.stream_key(-1, 0, 0)
        with pytest.raises(DomainError):
            S.stream_key(2**64, 0, 0)
        with pytest.raises(DomainError):
            S.stream_key(0, 2**24, 0)
        with pytest.raises(DomainError):
            S.stream_key(0, 0, 2**32)
        with pytest.raises(DomainError):
            S.stream_key(0, 0, 0, 256)

    def test_substream_reproducible(self):
        a = S.standard_normal(S.substream(5, 1, 2), 16)
        b = S.standard_normal(S.substream(5, 1, 2), 16)
        c = S.standard_normal(S.substream(5, 1, 3), 16)
        np.testing.assert_array_equal(a, b)
        assert np.any(a != c)

    def test_path_stream_block_row(self):
        ps = S.PathStream(seed=1, path=517)
        assert ps.block == 2 and ps.row == 5
        assert S.PathStream(seed=1, path=255).block == 0
        with pytest.raises(DomainError):
            S.PathStream(seed=1, path=-1)
        # the whole address is checked at construction: the block fills the key's 32-bit word, the component 24 bits
        last = S.PathStream(seed=1, path=2**32 * S.BLOCK - 1, component=2**24 - 1)
        assert (last.block, last.row) == (2**32 - 1, S.BLOCK - 1)
        for bad in ({"path": 1.5}, {"path": "3"}, {"path": None}, {"path": 2, "component": 0.5},
                    {"path": 2**40}, {"path": 2**32 * S.BLOCK}, {"path": 0, "component": 2**24}):
            with pytest.raises(DomainError):
                S.PathStream(seed=1, **bad)
        ps = S.PathStream(seed=1, path=np.int64(517), component=np.uint8(3))
        np.testing.assert_array_equal(S.path_normals(ps, 5), S.block_normals(1, 3, 2, 5)[5])

    def test_path_normals_read_the_key_packed_by_the_stream(self, monkeypatch):
        ps = S.PathStream(seed=np.uint64(2**64 - 1), path=np.int64(517), component=np.uint8(3))
        want = S.block_normals(2**64 - 1, 3, 2, 5, domain=S.DOMAIN_CLOCK)[5]

        def refuse(*args):
            raise AssertionError("path_normals checked the stream's key words again")

        monkeypatch.setattr(S, "_check_seed", refuse)
        monkeypatch.setattr(S, "_key_words", refuse)
        np.testing.assert_array_equal(S.path_normals(ps, 5, S.DOMAIN_CLOCK), want)
        with pytest.raises(DomainError, match="domain"):
            S.path_normals(ps, 5, 256)

    def test_bools_are_not_integers(self):
        # True would sample seed 1, path 1 or component 1, and a count of True would be 1
        with pytest.raises(DomainError, match="seed must be an integer"):
            S._check_seed(True)
        with pytest.raises(DomainError, match="m must be an integer, got True"):
            S._check_count(True, "m", 0)
        for words in ((True, 0, 0, 0), (1, True, 0, 0), (1, 0, False, 0), (1, 0, 0, True)):
            with pytest.raises(DomainError):
                S._key_words(*words)
            with pytest.raises(DomainError):
                S.stream_key(*words)
        for bad in ({"seed": True, "path": 0}, {"seed": 1, "path": False}, {"seed": 1, "path": 0, "component": True}):
            with pytest.raises(DomainError):
                S.PathStream(**bad)
        with pytest.raises(DomainError):
            S.block_normals(1, 0, 0, True)
        with pytest.raises(DomainError):
            S.path_normals(S.PathStream(1, 0), False)
        assert S._check_seed(np.uint64(7)) == 7 and S._check_count(np.int8(3), "m", 0) == 3


class TestThreadGenerator:
    def test_interleaved_threads_reproduce_serial_rows(self):
        # each thread reuses one generator and resets it per row, so threads
        # drawing different streams at once must not see each other's state
        addresses = [
            (seed, component, path, domain, m)
            for seed, component, domain in ((1, 0, S.DOMAIN_PATH), (2**63 + 5, 3, S.DOMAIN_CLOCK), (7, 2, S.DOMAIN_AUX), (7, 2, S.DOMAIN_PATH))
            for path, m in ((0, 3), (255, 64), (256, 9), (1000, 33))
        ]

        def draw(address):
            seed, component, path, domain, m = address
            return S.path_normals(S.PathStream(seed=seed, path=path, component=component), m, domain)

        serial = [draw(address) for address in addresses]
        for (seed, component, path, domain, m), row in zip(addresses, serial):
            want = S.standard_normal(S.substream(seed, component, path // S.BLOCK, domain, row=path % S.BLOCK), m)
            np.testing.assert_array_equal(row, want)

        results = {}
        errors = []

        def worker(index):
            try:
                for rep in range(200):
                    # each thread walks the addresses from its own offset
                    k = (index * 5 + rep) % len(addresses)
                    results.setdefault((index, k), []).append(draw(addresses[k]))
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(index,)) for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sum(len(rows) for rows in results.values()) == 4 * 200
        for (_, k), rows in results.items():
            for row in rows:
                np.testing.assert_array_equal(row, serial[k])


class TestStandardNormal:
    def test_moments(self):
        z = S.standard_normal(S.substream(7), 200_000)
        assert abs(z.mean()) < 4.0 / math.sqrt(200_000)
        assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / 200_000)

    def test_ks_against_normal(self):
        z = S.standard_normal(S.substream(11), 100_000)
        assert kstest(z, norm.cdf).pvalue > P_FLOOR

    def test_scalar_matches_vector_head(self):
        gen_a = S.substream(3)
        gen_b = S.substream(3)
        vec = S.standard_normal(gen_a, 4)
        singles = [float(S.standard_normal(gen_b)) for _ in range(4)]
        np.testing.assert_array_equal(vec, np.asarray(singles))

    def test_rows_are_their_own_generators(self):
        # the stream contract itself: row r of a block is a fresh ziggurat
        # generator whose Philox counter starts at (0, r, 0, 0)
        key = S.stream_key(29, 4, 6, S.DOMAIN_CLOCK)
        for m in (1, 7, 300):
            block = S.block_normals(29, 4, 6, m, S.DOMAIN_CLOCK)
            for row in (0, 1, 130, 255):
                want = Generator(Philox(key=key, counter=[0, row, 0, 0])).standard_normal(m)
                np.testing.assert_array_equal(block[row], want)
                np.testing.assert_array_equal(S.standard_normal(S.substream(29, 4, 6, S.DOMAIN_CLOCK, row=row), m), want)
        assert S.STREAM_CONTRACT == "philox-rowcounter-ziggurat-block256"

    def test_ndtri_is_the_normal_quantile(self):
        assert S.ndtri(0.999) == 3.090232306167813  # scipy.special.ndtri's value, bit for bit
        assert S.ndtri(0.5) == 0.0
        for p in (1e-12, 0.01, 0.3, 0.975, 1.0 - 1e-9):
            assert S.ndtri(p) == pytest.approx(norm.ppf(p), rel=1e-14)

    @pytest.mark.parametrize("p", [0.0, 1.0, 1.5, -0.5, math.nan, math.inf, -math.inf])
    def test_ndtri_refuses_non_probabilities(self, p):
        with pytest.raises(DomainError, match=r"probability in \(0, 1\)"):
            S.ndtri(p)


class TestRecursionSampler:
    def test_paths_start_at_zero(self):
        z = S.block_paths_1d(1.0, 16, seed=5, component=0, block=0)
        assert z.shape == (S.BLOCK, 17)
        assert np.all(z[:, 0] == 0.0)

    def test_marginal_ks(self):
        for lam in (0.25, 1.0, 4.0):
            z1 = _last_column(lam, 20_000, m=8, seed=42)
            cdf = norm(scale=math.sqrt(S.marginal_variance(lam, 1.0))).cdf
            assert kstest(z1, cdf).pvalue > P_FLOOR, lam

    def test_marginal_independent_of_grid(self):
        # the sampler is exact: the t=1 law cannot depend on step count
        a = _last_column(1.0, 20_000, m=4, seed=9)
        cdf = norm(scale=math.sqrt(S.marginal_variance(1.0, 1.0))).cdf
        b = _last_column(1.0, 20_000, m=64, seed=10)
        assert kstest(a, cdf).pvalue > P_FLOOR
        assert kstest(b, cdf).pvalue > P_FLOOR

    def test_autocovariance(self):
        # cov(Z_s, Z_t) = e^(-lam (t-s)) (1 - e^(-2 lam s)) / (2 lam)
        lam, m, n = 1.5, 8, 80_000
        zs = []
        for block in range(n // S.BLOCK):
            zs.append(S.block_paths_1d(lam, m, 77, 0, block))
        z = np.concatenate(zs)
        s, t = 0.5, 1.0
        i_s, i_t = 4, 8
        want = math.exp(-lam * (t - s)) * (-math.expm1(-2.0 * lam * s)) / (2.0 * lam)
        prod = z[:, i_s] * z[:, i_t]
        se = prod.std(ddof=1) / math.sqrt(n)
        assert abs(prod.mean() - want) < 4.0 * se

    # lam = 256 is the top rate of n^2:16; m = 2 is the smallest grid
    @pytest.mark.parametrize("lam, m, horizon", [(1.7, 64, 1.0), (256.0, 4096, 1.0), (0.05, 2, 1.0), (9.0, 1000, 0.5)])
    def test_matches_scalar_transition_chain(self, lam, m, horizon):
        # the whole block, a row range and the one-path sampler give the same
        # path bitwise; it is the literal state recursion driven by the same
        # normals to within 1e-13 of the path's scale, and bitwise up to
        # SCAN_STEPS steps, where the scan is that loop
        seed, row = 31, 40
        w = S.block_normals(seed, 0, 0, m)[row]
        dt = horizon / m
        a = math.exp(-lam * dt)
        sig = math.sqrt(-math.expm1(-2.0 * lam * dt) / (2.0 * lam))
        state = 0.0
        manual = [0.0]
        for k in range(m):
            state = a * state + sig * w[k]
            manual.append(state)
        manual = np.asarray(manual)
        whole = S.block_paths_1d(lam, m, seed, component=0, block=0, horizon=horizon)[row]
        np.testing.assert_allclose(whole, manual, rtol=0, atol=1e-13 * np.max(np.abs(manual)))
        if m <= S.SCAN_STEPS:
            np.testing.assert_array_equal(whole, manual)
        chunk = S.block_paths_1d(lam, m, seed, component=0, block=0, horizon=horizon, rows=(row - 7, row + 3))
        np.testing.assert_array_equal(chunk[7], whole)
        one = S.sample_path_1d(lam, m, S.PathStream(seed=seed, path=row), horizon=horizon)
        np.testing.assert_array_equal(one.values, whole)

    # chunk shapes of the scan: one partial chunk, exactly one chunk, a chunk
    # and a remainder, powers of two, odd remainders, many chunks
    @pytest.mark.parametrize("m", [3, 31, 32, 33, 63, 64, 65, 100, 1024, 1025, 5000])
    def test_scan_matches_loop_for_any_row_count(self, m):
        lam, horizon = 2.3, 1.0
        dt = horizon / m
        a = math.exp(-lam * dt)
        sig = math.sqrt(-math.expm1(-2.0 * lam * dt) / (2.0 * lam))
        normals = np.random.default_rng(m).standard_normal((5, m))
        paths = S._recursion_paths(lam, m, normals, horizon)
        assert paths.shape == (5, m + 1)
        for row in range(5):
            manual = [0.0]
            for k in range(m):
                manual.append(a * manual[-1] + sig * normals[row, k])
            manual = np.asarray(manual)
            np.testing.assert_allclose(paths[row], manual, rtol=0, atol=1e-13 * np.max(np.abs(manual)))
            if m <= S.SCAN_STEPS:
                np.testing.assert_array_equal(paths[row], manual)
            # a row's bits do not depend on the rows sharing its array
            np.testing.assert_array_equal(S._recursion_paths(lam, m, normals[row], horizon), paths[row])
            np.testing.assert_array_equal(S._recursion_paths(lam, m, normals[row : row + 1], horizon)[0], paths[row])
        # one rate per row: each row is bitwise the one-rate scan at its rate,
        # as a (5,) vector of rates and as a (5, 1) grid of them
        rates = np.array([0.05, 1.0, 2.3, 17.0, 256.0])
        per_row = S._recursion_paths(rates, m, normals, horizon)
        assert per_row.shape == (5, m + 1)
        np.testing.assert_array_equal(per_row[2], paths[2])
        for row, rate in enumerate(rates):
            np.testing.assert_array_equal(per_row[row], S._recursion_paths(rate, m, normals[row], horizon))
        grid = S._recursion_paths(rates[:, None], m, normals[:, None, :], horizon)
        np.testing.assert_array_equal(grid[:, 0], per_row)

    @pytest.mark.parametrize("m", [2, 31, 32, 33, 1000, 4096, 4097])
    def test_workspace_scan_is_the_allocating_scan(self, m):
        # a lane's workspace is sized for its largest chunk and reused by smaller ones, so the scan runs on
        # a prefix of it: after a larger scan, with stale values in it, the bits must stay the allocating call's.
        # A chunk's normals lie in the path buffer and its paths overwrite them, so each scan gets a fresh copy.
        draws = np.random.default_rng(m).standard_normal((16, m))
        scan, paths = S._lane_arrays(16, m)
        for rows in (16, 15, 1):
            normals, out = S._chunk_views(paths, rows, m)
            normals[...] = draws[:rows]
            got = S._recursion_paths(0.8, m, normals, 0.5, out=out, work=scan)
            assert np.shares_memory(got, paths) and np.shares_memory(got, normals)
            np.testing.assert_array_equal(got, S._recursion_paths(0.8, m, draws[:rows], 0.5))
            rates = np.linspace(0.1, 30.0, rows)
            normals[...] = draws[:rows]
            np.testing.assert_array_equal(S._recursion_paths(rates, m, normals, 0.5, out, scan),
                                          S._recursion_paths(rates, m, draws[:rows], 0.5))
        got = S.block_paths_1d(0.8, m, 5, 0, 3, rows=(16, 31), out=S._chunk_views(paths, 15, m)[1], work=scan)
        np.testing.assert_array_equal(got, S.block_paths_1d(0.8, m, 5, 0, 3, rows=(16, 31)))

    def test_row_slice_identity(self):
        # sampling one path must be a row of its block, bitwise
        for path in (0, 5, 255, 256, 700):
            pg = S.sample_path_1d(0.7, 32, S.PathStream(seed=13, path=path))
            block_rows = S.block_paths_1d(0.7, 32, 13, 0, path // S.BLOCK)
            np.testing.assert_array_equal(pg.values, block_rows[path % S.BLOCK])
        # odd, even and tiny m, two components and both domains, rows at both ends of a block
        for m in (2, 3, 5, 7, 32, 64):
            for component in (0, 3):
                for domain in (S.DOMAIN_PATH, S.DOMAIN_CLOCK):
                    blocks = {}
                    for path in (0, 1, 2, 3, 255, 256, 257, 1000):
                        block = path // S.BLOCK
                        if block not in blocks:
                            blocks[block] = S.block_normals(13, component, block, m, domain)
                        row = S.path_normals(S.PathStream(seed=13, path=path, component=component), m, domain)
                        np.testing.assert_array_equal(row, blocks[block][path % S.BLOCK])

    def test_domains_are_independent_streams(self):
        a = _last_column(1.0, 10_000, seed=3, domain=S.DOMAIN_PATH)
        b = _last_column(1.0, 10_000, seed=3, domain=S.DOMAIN_AUX)
        assert np.corrcoef(a, b)[0, 1] == pytest.approx(0.0, abs=4.0 / math.sqrt(10_000))

    def test_horizon_scaling(self):
        z = S.block_paths_1d(2.0, 16, 1, 0, 0, horizon=0.25)
        v = np.var(z[:, -1])
        assert v == pytest.approx(S.marginal_variance(2.0, 0.25), rel=0.5)


class TestTimechangeSampler:
    def test_deformed_clock(self):
        assert S.deformed_clock(1.0, 0.0) == 0.0
        assert S.deformed_clock(1.0, 1.0) == pytest.approx(math.expm1(2.0), rel=1e-15)
        with pytest.raises(DomainError):
            S.deformed_clock(400.0, 1.0)

    def test_starts_at_zero(self):
        pg = S.sample_path_timechange(1.0, 16, S.PathStream(seed=2, path=0))
        assert pg.values[0] == 0.0
        assert pg.values.shape == (17,)

    def test_cross_validates_recursive_sampler(self):
        # same marginal law at several times, entirely different streams
        lam, m, n = 1.0, 8, 20_000
        tc = np.empty((n, m + 1))
        for i in range(n):
            tc[i] = S.sample_path_timechange(lam, m, S.PathStream(seed=55, path=i)).values
        for idx, t in ((2, 0.25), (4, 0.5), (8, 1.0)):
            cdf = norm(scale=math.sqrt(S.marginal_variance(lam, t))).cdf
            assert kstest(tc[:, idx], cdf).pvalue > P_FLOOR, t

    def test_uses_its_own_domain(self):
        a = S.sample_path_timechange(1.0, 8, S.PathStream(seed=4, path=0)).values
        b = S.sample_path_1d(1.0, 8, S.PathStream(seed=4, path=0)).values
        assert np.any(a[1:] != b[1:])

    def test_draws_go_through_the_module_path_normals(self, monkeypatch):
        # perfbench's reference run swaps ousim.path_normals for block rows;
        # that swap must reach the time-change draw
        calls = []
        real = S.path_normals

        def counting(stream, m, domain=S.DOMAIN_PATH):
            calls.append((stream, m, domain))
            return real(stream, m, domain)

        stream = S.PathStream(seed=3, path=300)
        want = S.sample_path_timechange(1.0, 16, stream).values
        monkeypatch.setattr(S, "path_normals", counting)
        np.testing.assert_array_equal(S.sample_path_timechange(1.0, 16, stream).values, want)
        assert calls == [(stream, 16, S.DOMAIN_CLOCK)]


class TestPathGrid:
    def test_a_grid_needs_two_points(self):
        for size in (0, 1):
            with pytest.raises(DomainError, match="a grid needs at least two points"):
                S.PathGrid(1.0, np.zeros(size), np.zeros(size))
        assert S.PathGrid(1.0, np.array([0.0, 1.0]), np.zeros(2)).m == 1

    def test_bad_grids_raise(self):
        times = np.linspace(0.0, 1.0, 5)
        for bad_times, bad_values in ((times, np.zeros(4)), (times.reshape(1, 5), np.zeros((1, 5))), (times + 0.5, np.zeros(5))):
            with pytest.raises(DomainError):
                S.PathGrid(1.0, bad_times, bad_values)
        for start in (math.nan, math.inf):
            with pytest.raises(DomainError, match="start value must be finite"):
                S.PathGrid(1.0, times, np.array([start, 0.0, 0.0, 0.0, 0.0]))
        assert S.PathGrid(1.0, times, np.array([2.0, 0.0, 0.0, 0.0, 0.0])).horizon == 1.0

    def test_sampler_outputs_construct(self):
        stream = S.PathStream(seed=8, path=300)
        paths = [S.sample_path_1d(1.0, 2, stream), S.sample_path_timechange(1.0, 2, stream)]
        paths += S.sample_hilbert(DriftSpectrum.quadratic(3), 3, 2, seed=8, path=300).component_paths
        for path in paths:
            assert path.m == 2
            again = S.PathGrid(path.lam, path.times, path.values)
            np.testing.assert_array_equal(again.values, path.values)


class TestGridCache:
    SAMPLERS = (S.sample_path_1d, S.sample_path_timechange)

    def test_writes_into_a_path_do_not_reach_later_samples(self):
        for sampler in self.SAMPLERS:
            stream = S.PathStream(seed=21, path=300)
            first = sampler(0.9, 16, stream)
            expected = first.values.copy()
            first.values[:] = np.nan
            with pytest.raises(ValueError):
                first.times[1] = 5.0
            again = sampler(0.9, 16, stream)
            np.testing.assert_array_equal(again.values, expected)
            np.testing.assert_array_equal(again.times, np.linspace(0.0, 1.0, 17))

    def test_bad_grids_raise_after_a_valid_call(self):
        for sampler in self.SAMPLERS:
            stream = S.PathStream(seed=21, path=0)
            first = sampler(2.0, 8, stream)
            for _ in range(2):
                with pytest.raises(DomainError):
                    sampler(2.0, 1, stream)
                with pytest.raises(DomainError):
                    sampler(2.0, 8, stream, horizon=0.0)
                for bad_m in (8.0, "8", None):
                    with pytest.raises(DomainError, match="m must be an integer"):
                        sampler(2.0, bad_m, stream)
                np.testing.assert_array_equal(sampler(2.0, np.int64(8), stream).values, first.values)
        for _ in range(2):
            with pytest.raises(DomainError, match="m must be an integer"):
                S.block_paths_1d(1.0, 8.0, 21, 0, 0)
            with pytest.raises(DomainError, match="m must be an integer"):
                S.block_normals(21, 0, 0, 8.0)
            with pytest.raises(DomainError, match="m must be an integer"):
                S.path_normals(S.PathStream(seed=21, path=0), 8.0)
            with pytest.raises(DomainError, match="m must be at least 0"):
                S.path_normals(S.PathStream(seed=21, path=0), -1)
            with pytest.raises(DomainError, match="m must be at least 0"):
                S.block_normals(21, 0, 0, -1)
        np.testing.assert_array_equal(S.path_normals(S.PathStream(seed=21, path=0), np.uint8(8)), S.block_normals(21, 0, 0, 8)[0])
        S.sample_path_timechange(2.0, 8, S.PathStream(seed=21, path=0), horizon=100.0)
        for _ in range(2):
            with pytest.raises(DomainError):
                S.sample_path_timechange(2.0, 8, S.PathStream(seed=21, path=0), horizon=176.0)

    def test_rejects_bad_rates(self):
        stream = S.PathStream(seed=21, path=0)
        for bad in (0.0, -1.0, math.inf, math.nan):
            for sampler in self.SAMPLERS:
                with pytest.raises(DomainError, match="rate must be positive and finite"):
                    sampler(bad, 8, stream)
            with pytest.raises(DomainError, match="rate must be positive and finite"):
                S.block_paths_1d(bad, 8, 21, 0, 0)


class TestRowRanges:
    # (start, stop) pairs: empty ranges, single rows, starts at odd rows for
    # odd m and for m = 2, chunk-sized ranges and the block's end
    RANGES = ((0, 0), (5, 5), (256, 256), (1, 2), (1, 4), (3, 10), (6, 7), (31, 33), (0, 256), (129, 256), (255, 256))

    @pytest.mark.parametrize("m", [2, 3, 5, 7, 4096])
    def test_row_range_is_a_slice_of_the_block(self, m):
        for domain in (S.DOMAIN_PATH, S.DOMAIN_CLOCK):
            normals = S.block_normals(17, 2, 3, m, domain)
            paths = S.block_paths_1d(0.9, m, 17, 2, 3, domain=domain)
            for start, stop in self.RANGES:
                got = S.block_normals(17, 2, 3, m, domain, rows=(start, stop))
                assert got.shape == (stop - start, m)
                np.testing.assert_array_equal(got, normals[start:stop])
                got = S.block_paths_1d(0.9, m, 17, 2, 3, domain=domain, rows=(start, stop))
                assert got.shape == (stop - start, m + 1)
                np.testing.assert_array_equal(got, paths[start:stop])

    @pytest.mark.parametrize("rows", [(-1, 3), (3, 2), (0, 257), (257, 257), (1.0, 3), (0, "4"), (None, 4), (1,), 5,
                                      (False, True), (0, True)])
    def test_bad_row_ranges_raise(self, rows):
        with pytest.raises(DomainError):
            S.block_normals(1, 0, 0, 8, rows=rows)
        with pytest.raises(DomainError):
            S.block_paths_1d(1.0, 8, 1, 0, 0, rows=rows)

    def test_chunks_cover_the_rows(self):
        assert [S.chunk_rows(m) for m in (2, 256, 257, 1000, 4096, 2**16, 2**17)] == [256, 256, 255, 65, 16, 1, 1]
        assert S.row_chunks(100, 4096) == [(0, 16), (16, 32), (32, 48), (48, 64), (64, 80), (80, 96), (96, 100)]
        assert S.row_chunks(256, 256) == [(0, 256)]
        assert S.row_chunks(1, 4096) == [(0, 1)]


# partial and whole blocks around the 16-row chunks of M = 4096; M = 1000 has
# 65-row chunks and M = 33 one chunk per block
CHUNK_COUNTS = (1, 15, 16, 17, 100, 256)
# counts of runs that cross block boundaries, ending in a partial or a whole block
MULTI_BLOCK_COUNTS = (257, 3 * 256 + 17, 512)


class TestDrawnChunks:
    """Row chunks as run_lanes deals them: one iterator over a run's
    chunks, in path order and across its block boundaries, shared by the
    caller's thread and one lane thread, each drawing into its own
    workspace."""

    @staticmethod
    def _drawn(m, count, component=1):
        """(block, start, stop, at, normals, thread) of every chunk, drawn by its lane as a block kernel draws it."""
        seen = []

        def lane(rows, chunks):
            paths = S._lane_arrays(rows, m)[1]
            for blk, start, stop, at in chunks:
                normals = S._chunk_views(paths, stop - start, m)[0]
                got = S.block_normals(5, component, blk, m, rows=(start, stop), out=normals)
                seen.append((blk, start, stop, at, got.copy(), threading.current_thread()))

        S.run_lanes(count, m, lane, lanes=2)
        return sorted(seen, key=lambda chunk: chunk[3])

    def test_task_chunks_cover_the_paths_in_order(self):
        for m in (33, 1000, 4096):
            for count in CHUNK_COUNTS + MULTI_BLOCK_COUNTS:
                chunks = S.task_chunks(count, m)
                paths = [at + k for blk, start, stop, at in chunks for k in range(stop - start)]
                assert paths == list(range(count))
                assert all(blk * S.BLOCK + start == at for blk, start, stop, at in chunks)
                assert all(0 < stop - start <= chunks[0][2] - chunks[0][1] for _, start, stop, _ in chunks)
        assert S.task_chunks(257, 4096)[15:] == [(0, 240, 256, 240), (1, 0, 1, 256)]

    @pytest.mark.parametrize("m", [4096, 1000, 33])
    def test_chunks_are_the_rows_of_the_block_draw(self, m):
        draws = {blk: S.block_normals(5, 1, blk, m) for blk in range(4)}
        main = threading.main_thread()
        for count in CHUNK_COUNTS + MULTI_BLOCK_COUNTS:
            seen = self._drawn(m, count)
            # every chunk of the run exactly once
            assert [chunk[:4] for chunk in seen] == S.task_chunks(count, m)
            for blk, start, stop, _, got, _ in seen:
                np.testing.assert_array_equal(got, draws[blk][start:stop])
            helpers = {thread for *_, thread in seen if thread is not main}
            assert len(helpers) <= 1  # by the caller or by the one lane thread
            if len(seen) == 1:
                assert not helpers

    def test_every_chunk_is_dealt_once_under_fast_thread_switching(self):
        # 1-row chunks at m = 2^16: 785 items from one shared iterator, with the interpreter switching threads
        # every microsecond; a chunk dealt to both lanes, or to none, breaks the count
        taken = []

        def lane(rows, chunks):
            for chunk in chunks:
                taken.append((chunk, threading.current_thread()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                taken.clear()
                S.run_lanes(3 * 256 + 17, 2**16, lane, lanes=2)
                assert sorted(chunk for chunk, _ in taken) == S.task_chunks(3 * 256 + 17, 2**16)
        finally:
            sys.setswitchinterval(interval)

    def test_three_lanes_deal_every_chunk_once_under_fast_thread_switching(self):
        # more lanes than the two cores of the reference VM, from one shared iterator
        taken = []

        def lane(rows, chunks):
            for chunk in chunks:
                taken.append((chunk, threading.current_thread()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                taken.clear()
                S.run_lanes(3 * 256 + 17, 2**16, lane, lanes=3)
                assert sorted(chunk for chunk, _ in taken) == S.task_chunks(3 * 256 + 17, 2**16)
                assert len({thread for _, thread in taken}) <= 3
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == 1 or all(t.name != "oulab-lane" for t in threading.enumerate())

    def test_the_helper_thread_lives_only_inside_the_iteration(self):
        before = threading.active_count()
        counts = []
        S.run_lanes(16, 4096, lambda rows, chunks: counts.append(threading.active_count()), lanes=2)  # one chunk
        assert counts == [before]
        counts.clear()
        S.run_lanes(3 * 256 + 17, 4096, lambda rows, chunks: counts.append((rows, threading.active_count())), lanes=2)
        # two lanes, each sized for the largest chunk; the lane thread counts itself (the caller's lane may run
        # after it ended)
        assert [rows for rows, _ in counts] == [16, 16] and max(active for _, active in counts) == before + 1
        assert threading.active_count() == before
        main = threading.main_thread()
        for failing in ("caller", "helper"):
            taken = []

            def lane(rows, chunks):
                for chunk in chunks:
                    taken.append(chunk)
                    if (threading.current_thread() is main) == (failing == "caller"):
                        raise FloatingPointError(failing)
                    time.sleep(0.001)  # a chunk's work

            with pytest.raises(FloatingPointError, match=failing):
                S.run_lanes(3 * 256 + 17, 4096, lane, lanes=2)
            assert threading.active_count() == before
            # the other lane finishes the chunk it holds and takes no further one
            assert len(taken) < len(S.task_chunks(3 * 256 + 17, 4096))

    def test_one_lane_starts_no_thread_and_reuses_one_buffer(self):
        before = threading.active_count()
        lanes = []
        S.run_lanes(100, 4096, lambda rows, chunks: lanes.append((rows, list(chunks), threading.active_count())),
                    lanes=1)
        assert lanes == [(16, S.task_chunks(100, 4096), before)]  # one lane with all 7 chunks, on the caller's thread
        draws = {blk: S.block_normals(5, 1, blk, 4096) for blk in range(4)}
        for count in (100, 3 * 256 + 17):
            buffers = []

            def lane(rows, chunks):
                paths = S._lane_arrays(rows, 4096)[1]
                buffers.append(paths)
                for blk, start, stop, at in chunks:
                    assert threading.current_thread() is threading.main_thread()
                    normals = S._chunk_views(paths, stop - start, 4096)[0]
                    got = S.block_normals(5, 1, blk, 4096, rows=(start, stop), out=normals)
                    np.testing.assert_array_equal(got, draws[blk][start:stop])

            S.run_lanes(count, 4096, lane, lanes=1)
            assert len(buffers) == 1

    def test_per_path_samplers_start_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        stream = S.PathStream(seed=3, path=300)
        S.sample_path_1d(1.0, 4096, stream)
        S.sample_path_timechange(1.0, 4096, stream)
        S.path_normals(stream, 4096)
        S.sample_hilbert(DriftSpectrum.quadratic(4), 4, 4096, seed=3, path=300)

    def test_drawn_normals_replace_the_draw(self):
        rows = (16, 48)
        normals = S.block_normals(5, 0, 3, 100, rows=rows)
        out = np.empty((32, 100))
        assert S.block_normals(5, 0, 3, 100, rows=rows, out=out) is out
        np.testing.assert_array_equal(out, normals)
        np.testing.assert_array_equal(S.block_paths_1d(0.7, 100, 5, 0, 3, rows=rows, normals=normals),
                                      S.block_paths_1d(0.7, 100, 5, 0, 3, rows=rows))
        with pytest.raises(DomainError, match="shape"):
            S.block_paths_1d(0.7, 100, 5, 0, 3, rows=rows, normals=normals[:, :99])
        with pytest.raises(DomainError, match="shape"):
            S.block_normals(5, 0, 3, 100, rows=rows, out=np.empty((31, 100)))


class TestMarginalDensity:
    def test_integrates_to_one(self):
        for lam, t in ((0.5, 0.3), (2.0, 1.0)):
            val, err = quad(lambda x: S.marginal_density(lam, t, x), -np.inf, np.inf)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_symmetry_and_mode(self):
        xs = np.linspace(0.1, 3.0, 7)
        np.testing.assert_allclose(
            S.marginal_density(1.0, 0.7, xs), S.marginal_density(1.0, 0.7, -xs), rtol=1e-15
        )
        assert S.marginal_density(1.0, 0.7, 0.0) > S.marginal_density(1.0, 0.7, 0.5)

    def test_variance_by_quadrature(self):
        lam, t = 1.3, 0.6
        second, _ = quad(lambda x: x * x * S.marginal_density(lam, t, x), -np.inf, np.inf)
        assert second == pytest.approx(S.marginal_variance(lam, t), rel=1e-9)

    def test_long_time_reaches_invariant_variance(self):
        assert S.marginal_variance(2.0, 50.0) == pytest.approx(0.25, rel=1e-12)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(DomainError):
            S.marginal_density(1.0, 0.0, 0.0)


class TestRescalingLaw:
    def test_window_rescaling_preserves_the_law(self):
        # l^(-1/2) Z_{l t} at rate lam has the law of rate l*lam at t
        lam, ell, n = 2.0, 0.25, 20_000
        scaled = _last_column(lam, n, m=8, seed=88, horizon=ell) / math.sqrt(ell)
        cdf = norm(scale=math.sqrt(S.marginal_variance(lam * ell, 1.0))).cdf
        assert kstest(scaled, cdf).pvalue > P_FLOOR


class TestHilbertSampler:
    def test_shapes_and_zero_start(self):
        spec = DriftSpectrum.quadratic(8)
        hp = S.sample_hilbert(spec, truncation=8, m=16, seed=11, path=2)
        assert hp.state_matrix().shape == (17, 8)
        assert hp.norms()[0] == 0.0
        assert hp.truncation == 8
        np.testing.assert_array_equal(hp.times, np.linspace(0.0, 1.0, 17))

    def test_components_are_block_rows(self):
        spec = DriftSpectrum((1.0, 3.0, 9.0))
        # one chunk of the scan, then the doubling carry and the fix-up across chunks
        for m in (8, 33, 1000, 1025):
            hp = S.sample_hilbert(spec, truncation=3, m=m, seed=19, path=300)
            for n_comp, lam in enumerate(spec.eigenvalues):
                block_rows = S.block_paths_1d(lam, m, 19, n_comp, 300 // S.BLOCK)
                np.testing.assert_array_equal(hp.component_values(n_comp), block_rows[300 % S.BLOCK])

    def test_mean_square_norm(self):
        # E |Z_1|^2 = sum_n (1 - e^(-2 lam_n)) / (2 lam_n)
        spec = DriftSpectrum.quadratic(16)
        lam = spec.array
        want = float(np.sum(-np.expm1(-2.0 * lam) / (2.0 * lam)))
        n = 10_000
        total = np.zeros(n)
        for comp, rate in enumerate(lam):
            total += _hilbert_component_last(rate, comp, n, seed=101) ** 2
        se = total.std(ddof=1) / math.sqrt(n)
        assert abs(total.mean() - want) < 4.0 * se

    def test_cross_component_independence(self):
        n = 10_000
        a = _hilbert_component_last(1.0, 0, n, seed=61)
        b = _hilbert_component_last(4.0, 1, n, seed=61)
        assert abs(np.corrcoef(a, b)[0, 1]) < 4.0 / math.sqrt(n)

    def test_rejects_zero_truncation(self):
        with pytest.raises(DomainError):
            S.sample_hilbert(DriftSpectrum((1.0,)), truncation=0, m=4, seed=0)
        spec = DriftSpectrum((1.0, 2.0, 4.0))
        for bad in (2.5, 2.0, "2", None):
            with pytest.raises(DomainError, match="truncation must be an integer"):
                S.sample_hilbert(spec, bad, 8, 1)
        for bad in (-1, 4):
            with pytest.raises(DomainError, match="truncation"):
                S.sample_hilbert(spec, bad, 8, 1)
        with pytest.raises(DomainError, match="m must be an integer"):
            S.sample_hilbert(spec, 2, 8.0, 1)
        hp = S.sample_hilbert(spec, np.int32(2), np.int64(8), 1)
        np.testing.assert_array_equal(hp.state_matrix(), S.sample_hilbert(spec, 2, 8, 1).state_matrix())

    def test_draws_go_through_the_module_path_normals(self, monkeypatch):
        # perfbench's reference run swaps ousim.path_normals for block rows;
        # that swap must reach every component draw
        calls = []
        real = S.path_normals

        def counting(stream, m, domain=S.DOMAIN_PATH):
            calls.append((stream.component, m, domain))
            return real(stream, m, domain)

        monkeypatch.setattr(S, "path_normals", counting)
        S.sample_hilbert(DriftSpectrum.quadratic(5), truncation=4, m=16, seed=3, path=9)
        assert calls == [(n, 16, S.DOMAIN_PATH) for n in range(4)]

    def test_tail_mass_bound(self):
        spec = DriftSpectrum.quadratic(16)
        assert S.tail_mass_bound(spec, 16) == pytest.approx(0.5 / 16)
        cut = S.tail_mass_bound(spec, 8)
        dropped = sum(0.5 / (k * k) for k in range(9, 17))
        assert cut == pytest.approx(0.5 / 16 + dropped, rel=1e-14)

    def test_tail_mass_bound_rejects_invalid_truncations(self):
        spec = DriftSpectrum((1.0, 4.0))
        for bad in (0, -1, 2.5, len(spec) + 1):
            with pytest.raises(DomainError, match="truncation"):
                S.tail_mass_bound(spec, bad)


def _hilbert_component_last(lam, component, n_paths, seed):
    cols = []
    for block in range(-(-n_paths // S.BLOCK)):
        z = S.block_paths_1d(lam, 8, seed, component, block)
        cols.append(z[:, -1])
    return np.concatenate(cols)[:n_paths]


class TestPathIdentity:
    def test_paths_hash_and_compare_by_identity(self):
        stream = S.PathStream(1, 0)
        first, again = S.sample_path_1d(1.0, 8, stream), S.sample_path_1d(1.0, 8, stream)
        np.testing.assert_array_equal(first.values, again.values)
        assert first == first and first != again
        assert len({first, again, first}) == 2
        spec = DriftSpectrum((1.0, 2.0))
        hp, hp_again = S.sample_hilbert(spec, 2, 8, seed=1), S.sample_hilbert(spec, 2, 8, seed=1)
        assert hp == hp and hp != hp_again
        assert hash(hp) == hash(hp) and len({hp, hp_again}) == 2
