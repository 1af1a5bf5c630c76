import compileall
import importlib.machinery
import importlib.util
import itertools
import os
import platform
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from mvspde import measures
from mvspde.measures import (
    EXACT_ASSIGNMENT_LIMIT,
    LawFlow,
    dT_metric,
    p_moment,
    sum_squares,
    wasserstein_exact,
    wasserstein_sliced,
)
from mvspde.noise import CH_PROJECTION, RngStream

REPO = Path(__file__).resolve().parents[1]


def cloud(rows):
    return np.asarray(rows, dtype=float)


small_cloud = st.integers(2, 5).flatmap(
    lambda m: st.lists(
        st.lists(st.floats(-5, 5, allow_nan=False, width=32), min_size=2, max_size=2),
        min_size=m,
        max_size=m,
    )
)


class TestSumSquares:
    """Column adds in numpy's own order give np.add.reduce(x * x, axis=-1)."""

    @settings(max_examples=60)
    @given(
        n_modes=st.sampled_from(list(range(1, 18)) + [129]),
        lead=st.sampled_from([(7,), (3, 5), (2, 3, 4)]),
        layout=st.sampled_from(["C", "head", "every-other", "swapped"]),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_add_reduce(self, n_modes, lead, layout, seed):
        gen = np.random.default_rng(seed)
        if layout == "C":
            x = gen.standard_cauchy(lead + (n_modes,))
        elif layout == "head":      # the leading modes of a wider field
            x = gen.standard_cauchy(lead + (n_modes + 3,))[..., :n_modes]
        elif layout == "every-other":
            x = gen.standard_cauchy((2 * lead[0],) + lead[1:] + (n_modes,))[::2]
        else:                       # a flow's clouds: a swapped view
            x = gen.standard_cauchy(lead[::-1] + (n_modes,)).swapaxes(0, -2)
        x[(0,) * (x.ndim - 1)] = np.resize([-0.0, 1e150, np.inf], n_modes)
        got = sum_squares(x)
        assert got.tobytes() == np.add.reduce(np.ascontiguousarray(x) ** 2, axis=-1).tobytes()
        assert got.tobytes() == np.add.reduce(x * x, axis=-1).tobytes()
        assert got.flags.c_contiguous


def tensor_cost(x, y, p):
    """The cost matrix through the (M, M, N) difference tensor."""
    return np.linalg.norm(x[:, None, :] - y[None, :, :], axis=2) ** p


class TestModeByModeCost:
    """The cost matrix built one mode at a time has the tensor's bits."""

    @settings(max_examples=40, deadline=None)
    @given(
        m=st.one_of(st.integers(1, 40), st.sampled_from([255, 256])),
        n_modes=st.sampled_from(list(range(1, 18)) + [129]),
        p=st.sampled_from([1.0, 1.25, 1.5, 2.0]),
        seed=st.integers(0, 2**16),
    )
    def test_bitwise_tensor_reference(self, m, n_modes, p, seed):
        gen = np.random.default_rng(seed)
        x, y = gen.standard_cauchy((2, m, n_modes))
        ref = tensor_cost(x, y, p)
        assert measures._cost_matrix(x, y, p).tobytes() == ref.tobytes()
        rows, cols = linear_sum_assignment(ref)
        want = float(np.mean(ref[rows, cols]) ** (1.0 / p))
        assert wasserstein_exact(x, y, p) == want

    @pytest.mark.parametrize("p", [1.0, 1.25])
    def test_memory_below_three_matrices(self, p):
        # the tensor path peaks at two (M, M, N) arrays, 9 MB here, and a
        # full matrix per mode at once would take eight
        m, n_modes = EXACT_ASSIGNMENT_LIMIT, 8
        mu, nu = np.random.default_rng(5).normal(size=(2, m, n_modes))
        wasserstein_exact(mu, nu, p)  # scipy imported outside the trace
        tracemalloc.start()
        try:
            wasserstein_exact(mu, nu, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * m * m * 8

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="counts pages under glibc's mmap threshold")
    def test_repeated_solves_reuse_heap_pages(self, tmp_path):
        assert repeated_solve_faults(tmp_path, bytecode=False) < 1000

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="counts pages under glibc's mmap threshold")
    def test_repeated_solves_reuse_heap_pages_from_bytecode(self, tmp_path):
        assert repeated_solve_faults(tmp_path, bytecode=True) < 1000


def repeated_solve_faults(tmp_path, bytecode: bool) -> int:
    """Page faults of 8 repeated M = 256 solves in a fresh interpreter.

    Fresh, so no earlier test has moved glibc's dynamic mmap threshold; on a
    copy of the package loaded from its source or from compileall bytecode,
    whose start-ups leave different heap histories (compiling frees large
    chunks, which raises the threshold).  Temporaries mapped afresh per call
    fault about 7,000 pages in 8 calls, heap pages returned and taken again
    about 2,000.
    """
    shutil.copytree(REPO / "src" / "mvspde", tmp_path / "mvspde",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if bytecode:
        assert compileall.compile_dir(str(tmp_path / "mvspde"), quiet=1)
    code = (
        "import resource, numpy as np\n"
        "from mvspde.measures import wasserstein_exact\n"
        "mu, nu = np.random.default_rng(5).normal(size=(2, 256, 8))\n"
        "wasserstein_exact(mu, nu, 1.25)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(8):\n"
        "    wasserstein_exact(mu, nu, 1.25)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(tmp_path), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return int(proc.stdout)


def tie_costs():
    """Cost matrices whose optimal assignment is far from unique."""
    gen = np.random.default_rng(11)
    xi = np.array([0.5, -0.3, 0.2])
    y = gen.normal(size=(16, 3))
    dup = np.repeat(gen.normal(size=(4, 3)), 4, axis=0)
    return {
        "constant-cloud": measures._cost_matrix(np.tile(xi, (16, 1)), y, 1.0),
        "duplicate-atoms": measures._cost_matrix(dup, dup[::-1], 1.25),
        "rectangular": gen.integers(0, 3, size=(5, 8)).astype(float),
    }


class TestAssignmentKernel:
    """The kernel loaded from its file is scipy.optimize's function."""

    @pytest.mark.parametrize("case", list(tie_costs()))
    def test_same_assignment_as_scipy_on_ties(self, case):
        cost = tie_costs()[case]
        for c in (cost, cost.T):
            got, want = measures.assignment_solver()(c), linear_sum_assignment(c)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_nan_cost_raises_scipys_error(self):
        cost = np.ones((3, 3))
        cost[1, 2] = np.nan
        errors = []
        for solve in (measures.assignment_solver(), linear_sum_assignment):
            with pytest.raises(ValueError) as info:
                solve(cost)
            errors.append(str(info.value))
        assert errors[0] == errors[1]

    def test_loaded_once_per_process(self, monkeypatch):
        loads = []
        real = importlib.util.spec_from_file_location

        def spy(*args, **kwargs):
            loads.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(importlib.util, "spec_from_file_location", spy)
        measures.assignment_solver.cache_clear()
        try:
            x, y = np.random.default_rng(2).normal(size=(2, 6, 3))
            for _ in range(3):
                wasserstein_exact(x, y, 1.0)
            assert measures.assignment_solver() is linear_sum_assignment
        finally:
            measures.assignment_solver.cache_clear()
        assert len(loads) == 1 and loads[0][0] == "scipy.optimize._lsap"

    def test_package_import_where_kernel_file_missing(self, monkeypatch):
        def no_load(*args, **kwargs):
            raise AssertionError("the kernel file was found")

        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
        monkeypatch.setattr(importlib.util, "spec_from_file_location", no_load)
        measures.assignment_solver.cache_clear()
        try:
            assert measures.assignment_solver() is linear_sum_assignment
            x, y = np.random.default_rng(3).normal(size=(2, 6, 3))
            cost = measures._cost_matrix(x, y, 1.0)
            rows, cols = linear_sum_assignment(cost)
            assert wasserstein_exact(x, y, 1.0) == float(np.mean(cost[rows, cols]))
        finally:
            measures.assignment_solver.cache_clear()


def p_moment_reference(x, p):
    """The law statistic through np.linalg.norm, np.mean and scalar roots."""
    means = np.mean(np.linalg.norm(x, axis=-1) ** p, axis=-1)
    roots = [float(v) ** (1.0 / p) for v in np.ravel(means)]
    return roots[0] if means.ndim == 0 else np.reshape(roots, means.shape)


class TestPMoment:
    @pytest.mark.parametrize("shape", [(1, 1), (125, 8), (8, 125, 8), (2, 30, 3),
                                       (9, 129), (3, 4, 17, 5)])
    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5])
    def test_bitwise_mean_and_root_reference(self, shape, p):
        x = np.random.default_rng(len(shape)).standard_cauchy(shape)
        for view in (x, x[..., ::2, :]):
            got, want = measures.p_moment(view, p), p_moment_reference(view, p)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestCloudMoment:
    def test_p_moment_hand_sum(self):
        assert p_moment(cloud([[1.0, 0.0], [0.0, 2.0]]), 1.0) == pytest.approx(1.5)

    def test_point_mass_at_zero(self):
        assert p_moment(cloud([[0.0, 0.0]]), 1.0) == 0.0

    def test_constant_cloud_moment_is_norm(self):
        u = np.array([0.6, -0.8])
        mu = cloud([u, u, u])
        for p in (1.0, 1.3):
            assert p_moment(mu, p) == pytest.approx(1.0)


class TestWassersteinExact:
    def test_hand_case_one_mode(self):
        mu = cloud([[0.0], [2.0]])
        nu = cloud([[1.0], [5.0]])
        assert wasserstein_exact(mu, nu, 1.0) == pytest.approx(2.0)

    def test_identical_clouds(self):
        mu = cloud([[1.0, 2.0], [3.0, -1.0]])
        assert wasserstein_exact(mu, mu, 1.0) == 0.0

    def test_translation(self):
        u = np.array([3.0, 4.0])
        mu = cloud([[0.0, 0.0]] * 4)
        nu = cloud([u] * 4)
        for p in (1.0, 1.4):
            assert wasserstein_exact(mu, nu, p) == pytest.approx(5.0)

    def test_unequal_sizes_rejected(self):
        with pytest.raises(ValueError):
            wasserstein_exact(cloud([[0.0]]), cloud([[0.0], [1.0]]), 1.0)

    def test_size_cap(self):
        big = np.zeros((EXACT_ASSIGNMENT_LIMIT + 1, 1))
        with pytest.raises(ValueError):
            wasserstein_exact(big, big, 1.0)

    def test_brute_force_oracle(self):
        # exact assignment vs exhaustive permutation search on tiny clouds
        rng = np.random.default_rng(2024)
        for trial in range(200):
            m = int(rng.integers(2, 8))
            p = float(rng.uniform(1.0, 1.45))
            x = rng.normal(size=(m, 2))
            y = rng.normal(size=(m, 2))
            best = min(
                np.mean(np.linalg.norm(x - y[list(perm)], axis=1) ** p)
                for perm in itertools.permutations(range(m))
            ) ** (1.0 / p)
            assert wasserstein_exact(x, y, p) == pytest.approx(best, rel=1e-10)

    @given(a=small_cloud, b=small_cloud)
    def test_symmetry_and_index_bound(self, a, b):
        m = min(len(a), len(b))
        x, y = np.array(a[:m]), np.array(b[:m])
        d_ab = wasserstein_exact(x, y, 1.0)
        assert d_ab == pytest.approx(wasserstein_exact(y, x, 1.0), abs=1e-12)
        index_coupling = float(np.mean(np.linalg.norm(x - y, axis=1)))
        assert d_ab <= index_coupling + 1e-12

    @given(a=small_cloud, b=small_cloud, c=small_cloud)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        m = min(len(a), len(b), len(c))
        mu, nu, rho = (np.array(v[:m]) for v in (a, b, c))
        d = lambda s, t: wasserstein_exact(s, t, 1.0)
        assert d(mu, rho) <= d(mu, nu) + d(nu, rho) + 1e-9

    @given(a=small_cloud, b=small_cloud)
    def test_w1_below_wp(self, a, b):
        m = min(len(a), len(b))
        mu, nu = (np.array(v[:m]) for v in (a, b))
        assert wasserstein_exact(mu, nu, 1.0) <= wasserstein_exact(mu, nu, 1.4) + 1e-9


class TestWassersteinSliced:
    def test_identical_clouds(self, rng):
        x = rng.normal(size=(40, 3))
        assert wasserstein_sliced(x, x, 1.0, rng=np.random.default_rng(1)) == 0.0

    def test_one_mode_matches_exact(self, rng):
        x = rng.normal(size=(30, 1))
        y = rng.normal(size=(30, 1))
        sliced = wasserstein_sliced(x, y, 1.0, n_projections=5,
                                    rng=np.random.default_rng(3))
        assert sliced == pytest.approx(wasserstein_exact(x, y, 1.0), rel=1e-9)

    def test_translation_single_projection(self):
        u = np.array([0.0, 2.0])
        mu = np.zeros((10, 2))
        nu = np.tile(u, (10, 1))
        val = wasserstein_sliced(mu, nu, 1.0,
                                 directions=(u / np.linalg.norm(u))[None, :])
        assert val == pytest.approx(2.0)

    def test_deterministic_given_rng(self, rng):
        x, y = rng.normal(size=(25, 3)), rng.normal(size=(25, 3))
        vals = [
            wasserstein_sliced(x, y, 1.0, rng=np.random.default_rng(7))
            for _ in range(2)
        ]
        assert vals[0] == vals[1]

    def test_lower_bounds_exact(self, rng):
        # projections contract distances, so the sliced value sits below exact
        x, y = rng.normal(size=(20, 3)), rng.normal(size=(20, 3))
        sliced = wasserstein_sliced(x, y, 1.0, n_projections=64,
                                    rng=np.random.default_rng(5))
        assert sliced <= wasserstein_exact(x, y, 1.0) + 1e-9


class TestLawFlowMetric:
    def make_flow(self, clouds):
        arr = np.asarray(clouds, dtype=float)
        times = np.linspace(0.0, 1.0, arr.shape[0])
        return LawFlow(times, arr)

    def test_identical_flows(self, rng):
        arr = rng.normal(size=(4, 8, 2))
        flow = self.make_flow(arr)
        assert dT_metric(flow, flow, lambda_weight=2.0, p=1.0) == 0.0

    def test_translation_flow_peaks_at_zero(self):
        u = np.array([1.0, -1.0])
        a = np.zeros((3, 6, 2))
        b = np.tile(u, (3, 6, 1))
        val = dT_metric(self.make_flow(a), self.make_flow(b),
                        lambda_weight=4.0, p=1.0)
        # sup_t e^{-lambda t} * |u| is attained at t = 0
        assert val == pytest.approx(np.sqrt(2.0))

    def test_grid_mismatch_rejected(self, rng):
        arr = rng.normal(size=(3, 5, 2))
        f1 = LawFlow(np.array([0.0, 0.5, 1.0]), arr)
        f2 = LawFlow(np.array([0.0, 0.4, 1.0]), arr)
        with pytest.raises(ValueError):
            dT_metric(f1, f2, lambda_weight=1.0, p=1.0)

    def test_weight_monotonicity(self, rng):
        a = rng.normal(size=(4, 8, 2))
        b = rng.normal(size=(4, 8, 2))
        f1, f2 = self.make_flow(a), self.make_flow(b)
        d_small = dT_metric(f1, f2, lambda_weight=0.5, p=1.0)
        d_large = dT_metric(f1, f2, lambda_weight=5.0, p=1.0)
        assert d_large <= d_small + 1e-12


def exhaustive_dT(mu_flow, nu_flow, lambda_weight, p, directions=None):
    """Reference sup: solve every grid time, no pruning."""
    best = 0.0
    for j in range(mu_flow.n_times):
        mu_j, nu_j = mu_flow.clouds[j], nu_flow.clouds[j]
        if directions is None:
            w = wasserstein_exact(mu_j, nu_j, p)
        else:
            w = wasserstein_sliced(mu_j, nu_j, p, directions=directions)
        best = max(best, float(np.exp(-lambda_weight * mu_flow.times[j])) * w)
    return best


def flow_pair(seed, kind, n_times, M, n_modes):
    """Two flows on [0, 1]: coupled, shuffled, independent, identical or tied.

    Shuffled flows are coupled flows with the atoms relabelled, so the
    index coupling is a poor bound and the sup needs many solves.
    """
    gen = np.random.default_rng(seed)
    a = gen.normal(size=(n_times, M, n_modes))
    if kind == "coupled":
        b = a + 1e-3 * gen.normal(size=a.shape)
    elif kind == "shuffled":
        b = a[:, gen.permutation(M)] + 0.3 * gen.normal(size=a.shape)
    elif kind == "independent":
        b = gen.normal(size=a.shape)
    elif kind == "identical":
        b = a.copy()
    else:  # tied: the same pair of clouds at every time
        a[:] = a[0]
        b = np.broadcast_to(gen.normal(size=(M, n_modes)), a.shape).copy()
    times = np.linspace(0.0, 1.0, n_times)
    return LawFlow(times, a), LawFlow(times, b)


FLOW_KINDS = st.sampled_from(["coupled", "shuffled", "independent", "identical", "tied"])
WEIGHTS = st.sampled_from([0.0, 0.25, 1.0, 6.0])


class TestPrunedSup:
    @given(seed=st.integers(0, 2**32 - 1), kind=FLOW_KINDS,
           p=st.sampled_from([1.0, 2.0]), lam=WEIGHTS,
           n_times=st.integers(1, 12), M=st.integers(1, 12),
           n_modes=st.integers(1, 3))
    def test_exact_matches_exhaustive_bitwise(self, seed, kind, p, lam,
                                              n_times, M, n_modes):
        mu, nu = flow_pair(seed, kind, n_times, M, n_modes)
        if kind == "tied":
            lam = 0.0
        got = dT_metric(mu, nu, lambda_weight=lam, p=p)
        assert got.hex() == exhaustive_dT(mu, nu, lam, p).hex()

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1), kind=FLOW_KINDS,
           p=st.sampled_from([1.0, 2.0]), lam=WEIGHTS,
           n_times=st.integers(1, 4))
    def test_sliced_matches_exhaustive_bitwise(self, seed, kind, p, lam, n_times):
        M = EXACT_ASSIGNMENT_LIMIT + 1
        mu, nu = flow_pair(seed, kind, n_times, M, 2)
        if kind == "tied":
            lam = 0.0
        rng = RngStream(seed, channel=CH_PROJECTION)
        got = dT_metric(mu, nu, lambda_weight=lam, p=p, n_projections=16, rng=rng)
        directions = rng.generator().standard_normal((16, 2))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        assert got.hex() == exhaustive_dT(mu, nu, lam, p, directions).hex()

    @pytest.mark.parametrize("p", [1.0, 1.25])
    def test_bound_blocks_end_ragged(self, monkeypatch, p):
        # a time count that is not a multiple of the block leaves the last
        # block short; the blocks' bounds are the whole flow's, bit for bit
        block = measures.BLOCK_ENTRIES // (256 * 8)
        mu, nu = flow_pair(7, "shuffled", 2 * block + 1, 256, 8)
        bounds = []

        def recorded(x, order):
            bounds.append(p_moment(x, order))
            return bounds[-1]

        monkeypatch.setattr(measures, "p_moment", recorded)
        got = dT_metric(mu, nu, lambda_weight=0.5, p=p)
        assert [b.size for b in bounds] == [block, block, 1]
        whole = p_moment(mu.clouds - nu.clouds, p)
        assert np.concatenate(bounds).tobytes() == whole.tobytes()
        assert got.hex() == exhaustive_dT(mu, nu, 0.5, p).hex()

    def counting_exact(self, monkeypatch):
        calls = []

        def counted(mu, nu, p):
            calls.append(None)
            return wasserstein_exact(mu, nu, p)

        monkeypatch.setattr(measures, "wasserstein_exact", counted)
        return calls

    def test_coupled_flow_costs_one_solve(self, monkeypatch, rng):
        a = rng.normal(size=(17, 32, 4))
        # perturbation shrinking in time: the sup sits at t = 0 alone
        scale = 1e-3 * 0.5 ** np.arange(17)
        b = a + scale[:, None, None] * rng.normal(size=a.shape)
        times = np.linspace(0.0, 1.0, 17)
        calls = self.counting_exact(monkeypatch)
        got = dT_metric(LawFlow(times, a), LawFlow(times, b), lambda_weight=1.0, p=1.0)
        assert len(calls) == 1
        assert got == wasserstein_exact(a[0], b[0], 1.0)

    def test_sup_below_the_largest_bound(self, monkeypatch):
        # t=0: relabelled atoms, bound 10 but W = 0.995; t=1: a unit shift,
        # bound = W = 1.  The sup sits at the smaller bound, 0.5% below W(t=0).
        a = np.array([[[0.0], [10.0]], [[0.0], [10.0]]])
        b = np.array([[[10.995], [0.995]], [[1.0], [11.0]]])
        times = np.array([0.0, 1.0])
        calls = self.counting_exact(monkeypatch)
        assert dT_metric(LawFlow(times, a), LawFlow(times, b), 0.0, p=1.0) == 1.0
        assert len(calls) == 2

    def test_identical_flows_cost_no_solve(self, monkeypatch, rng):
        flow = LawFlow(np.linspace(0.0, 1.0, 5), rng.normal(size=(5, 8, 2)))
        calls = self.counting_exact(monkeypatch)
        assert dT_metric(flow, flow, lambda_weight=1.0, p=2.0) == 0.0
        assert calls == []

    def test_non_finite_bound_names_time_before_solving(self, monkeypatch, rng):
        a = rng.normal(size=(6, 8, 2))
        b = a + 0.1
        b[4, 3, 1] = np.nan
        b[5, 0, 0] = np.inf
        times = np.linspace(0.0, 1.0, 6)
        calls = self.counting_exact(monkeypatch)
        with pytest.raises(ValueError, match=r"time index 4 \(t = 0\.8\): nan$"):
            dT_metric(LawFlow(times, a), LawFlow(times, b), lambda_weight=1.0, p=1.0)
        assert calls == []

    def test_mode_count_mismatch_rejected(self, rng):
        times = np.linspace(0.0, 1.0, 3)
        f1 = LawFlow(times, rng.normal(size=(3, 5, 2)))
        f2 = LawFlow(times, rng.normal(size=(3, 5, 3)))
        with pytest.raises(ValueError, match="shapes differ"):
            dT_metric(f1, f2, lambda_weight=1.0, p=1.0)

