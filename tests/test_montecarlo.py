import atexit
import contextlib
import dataclasses
import itertools
import math
import os
import pickle
import signal
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erlweak import (
    ExperimentConfig,
    InsufficientAcceptanceError,
    PostselectedEstimate,
    Quadrature,
    SymplecticMap,
    acceptance_probability,
    apply_to_points,
    coupling_map,
    exact_strong_correlation,
    gaussian_condition,
    gaussian_regime_margin,
    joint_momentum_histogram,
    make_particle,
    make_pure_device,
    oracle_estimate,
    oracle_postselected_means,
    postselected_means_gaussian,
    quadrature_moments,
    run_weak_experiment,
    sample_state,
    strong_measurement_correlation,
    tensor,
    weak_value_gaussian,
    windowed_oracle,
)
from erlweak import montecarlo
from erlweak.states import quadrature_vector

HALF_PI = math.pi / 2

BASE = ExperimentConfig(
    mu_q=0.0,
    mu_p=0.0,
    sigma=1.0,
    delta_Q=1.0,
    mu_P=0.0,
    omega=0.0,
    g=0.1,
    theta_A=Quadrature(0.0),
    theta_B=Quadrature(HALF_PI),
    b=1.0,
    epsilon=None,
    n_samples=200_000,
    seed=42,
)


class TestSampling:
    def test_moments_converge(self):
        n = 1_000_000
        pts = sample_state(make_particle(0.0, 0.0, 1.0), n, seed=1)
        bound = 4.0 / math.sqrt(n)
        assert abs(pts[0].mean()) < bound
        assert abs(pts[1].mean()) < bound / 2.0  # momentum std is 1/2
        assert pts[0].var() == pytest.approx(1.0, rel=0.01)
        assert pts[1].var() == pytest.approx(0.25, rel=0.01)

    def test_fixed_seed_is_bit_identical(self):
        a = sample_state(make_particle(0.3, -0.2, 1.0), 10_000, seed=9)
        b = sample_state(make_particle(0.3, -0.2, 1.0), 10_000, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_prefix_stability_across_lengths(self):
        # chunked substreams: the first n draws do not depend on the total
        a = sample_state(make_particle(0.0, 0.0, 1.0), 300_000, seed=9)
        b = sample_state(make_particle(0.0, 0.0, 1.0), 400_000, seed=9)
        np.testing.assert_array_equal(a, b[:, :300_000])

    def test_degenerate_covariance_rejected(self):
        from erlweak import GaussianState

        flat = GaussianState([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            sample_state(flat, 10, seed=0)

    def test_chunk_size_must_be_positive(self):
        config = dataclasses.replace(BASE, n_samples=10)
        for chunk_size in (0, -5):
            with pytest.raises(ValueError):
                sample_state(make_particle(0.0, 0.0, 1.0), 10, seed=0, chunk_size=chunk_size)
            with pytest.raises(ValueError):
                run_weak_experiment(config, chunk_size=chunk_size)
            with pytest.raises(ValueError):
                joint_momentum_histogram(config, 5, chunk_size=chunk_size)
            with pytest.raises(ValueError):
                strong_measurement_correlation([1.0], config, chunk_size=chunk_size)


class TestBlocks:
    """Inside a chunk, points are drawn in blocks of BLOCK rows from the
    chunk's one Generator; they equal one draw of the whole chunk."""

    @pytest.mark.parametrize(
        "rows", [1000, montecarlo.BLOCK, 20_000, montecarlo.DEFAULT_CHUNK]
    )
    def test_blocks_equal_one_draw_per_chunk(self, rows):
        state = dataclasses.replace(BASE, omega=0.5, mu_P=0.3, mu_q=0.2, g=0.4).evolved_joint()
        lower = np.linalg.cholesky(state.cov)
        blocks = [b.copy() for b in montecarlo._blocks(montecarlo._source(state, 11), 3, rows)]
        assert max(b.shape[1] for b in blocks) <= montecarlo.BLOCK
        z = montecarlo._chunk_rng(11, 3).standard_normal((rows, 4))
        np.testing.assert_array_equal(np.concatenate(blocks, axis=1).T, state.mean + z @ lower.T)

    def test_consumers_copy_out_of_the_reused_buffer(self):
        # one chunk of several blocks: sample_state and the correlation must
        # take each block's values before the next block overwrites them
        config = dataclasses.replace(BASE, g=0.4, mu_P=0.3, theta_A=Quadrature(0.6), seed=9)
        joint = config.joint()
        rows = 3 * montecarlo.BLOCK + 123
        lower = np.linalg.cholesky(joint.cov)
        z = montecarlo._chunk_rng(config.seed, 0).standard_normal((rows, 4))
        pts = joint.mean + z @ lower.T
        np.testing.assert_array_equal(sample_state(joint, rows, config.seed, chunk_size=rows).T, pts)

        smap = coupling_map(config.g, config.theta_A)
        readout = np.array([[*config.theta_A.vector, 0.0, 0.0], smap.matrix[2]])
        source = montecarlo._source(joint, config.seed, readout)
        m, mean, scatter = montecarlo._correlation_chunk(source, 0, rows)
        a = config.theta_A.value(pts[:, 0], pts[:, 1])
        aq = np.column_stack([a, apply_to_points(smap, pts.T)[2]])
        centred = aq - aq.mean(axis=0)
        assert m == rows
        np.testing.assert_allclose(mean, aq.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(scatter, centred.T @ centred, rtol=1e-12)

    @staticmethod
    def _chunk_and_reference(monkeypatch, epsilon):
        # the chunk multiplies L by z^T and M by the points, one coordinate
        # per row, in block buffers; its accepted rows, over several blocks,
        # are bit for bit those of (mean + z @ L^T) @ M^T. The chunk hands
        # them to `_moments`, which the test swaps for a copy of its input
        config = dataclasses.replace(
            BASE, g=0.4, mu_P=0.3, omega=0.5, theta_A=Quadrature(0.6), b=0.3, epsilon=epsilon, seed=9
        )
        joint, smap = config.joint(), coupling_map(config.g, config.theta_A)
        rows = 3 * montecarlo.BLOCK + 123
        z = montecarlo._chunk_rng(config.seed, 0).standard_normal((rows, 4))
        pts = joint.mean + z @ np.linalg.cholesky(joint.cov).T
        evolved = pts @ smap.matrix.T
        a_after = config.theta_A.value(evolved[:, 0], evolved[:, 1])
        keep = np.abs(config.theta_B.value(evolved[:, 0], evolved[:, 1]) - config.b) <= config.epsilon
        ref = np.column_stack([evolved[keep, 2], evolved[keep, 3], a_after[keep]])
        window = (config.theta_B, config.b, config.epsilon)
        args = (montecarlo._source(joint, config.seed), smap, config.theta_A, (window,))
        monkeypatch.setattr(montecarlo, "_moments", lambda values: values.T.copy())
        (got,) = montecarlo._experiment_chunk(args, 0, rows)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        return got.shape[0], rows

    def test_accepted_rows_equal_the_two_step_reference(self, monkeypatch):
        accepted, rows = self._chunk_and_reference(monkeypatch, 0.2)
        assert 1000 < accepted < rows

    def test_accepted_buffer_grows_past_one_block(self, monkeypatch):
        # the accepted buffer starts at one block; a window that takes every
        # draw makes it grow, and the rows must come out the same
        accepted, rows = self._chunk_and_reference(monkeypatch, 1e3)
        assert accepted == rows > 2 * montecarlo.BLOCK

    def test_one_sampling_loop(self):
        src = Path(montecarlo.__file__).parent
        calls = sum(f.read_text().count("standard_normal") for f in src.glob("*.py"))
        assert calls == 1


class TestChunkPool:
    FIG2 = Path(__file__).resolve().parents[1] / "scripts" / "fig2_histogram.json"  # n = 1e6: 4 chunks

    def test_degenerate_covariance_raises_before_dispatch(self, monkeypatch):
        from erlweak import GaussianState

        flat = GaussianState(np.zeros(4), np.diag([1.0, 0.0, 1.0, 1.0]))

        def no_dispatch(*args):
            raise AssertionError("chunks dispatched")

        monkeypatch.setattr(montecarlo, "_run_chunks", no_dispatch)
        monkeypatch.setattr(ExperimentConfig, "joint", lambda self: flat)
        monkeypatch.setattr(montecarlo, "tensor", lambda *states: flat)
        config = dataclasses.replace(BASE, epsilon=0.1, n_samples=10 * montecarlo.BLOCK)
        chunk = montecarlo.BLOCK
        with pytest.raises(ValueError, match="degenerate"):
            run_weak_experiment(config, chunk_size=chunk)
        with pytest.raises(ValueError, match="degenerate"):
            joint_momentum_histogram(config, 5, ((-1.0, 1.0), (-1.0, 1.0)), chunk_size=chunk)
        with pytest.raises(ValueError, match="degenerate"):
            strong_measurement_correlation([1.0], config, chunk_size=chunk)

    def test_error_in_the_reduction_terminates_the_pool(self, monkeypatch):
        # an interrupt in the parent's reduction, with its traceback kept (as
        # a REPL keeps the last one), must not leave the pool running the
        # remaining chunks: the pool is gone before the sampler call returns.
        # The correlation's `_merge` takes the pool's results as they come, so
        # the interrupt lands after one chunk, with the others still out
        monkeypatch.setattr(montecarlo, "WORKERS", 2)
        config = dataclasses.replace(BASE, n_samples=40 * montecarlo.BLOCK)

        def run():
            return strong_measurement_correlation([1.0], config, chunk_size=montecarlo.BLOCK)

        undisturbed = run()
        merge = montecarlo._merge

        def interrupted(parts):
            next(parts)
            raise KeyboardInterrupt

        monkeypatch.setattr(montecarlo, "_merge", interrupted)
        with pytest.raises(KeyboardInterrupt) as info:
            run()
        assert info.value.__traceback__ is not None and montecarlo._pool is None
        monkeypatch.setattr(montecarlo, "_merge", merge)
        assert run() == undisturbed
        montecarlo._close_pool()

    def test_interrupt_as_the_pool_is_made_terminates_it(self, monkeypatch):
        # an interrupt that lands after the pool exists but before its owner
        # is recorded must not leave it behind: the next call would take
        # itself for a forked copy and run in-process beside idle workers
        import multiprocessing

        monkeypatch.setattr(montecarlo, "WORKERS", 2)
        monkeypatch.setattr(montecarlo, "_pool", None)
        monkeypatch.setattr(montecarlo, "_pool_owner", 0)
        before = set(multiprocessing.active_children())

        def interrupted(hook):
            assert montecarlo._pool is not None
            raise KeyboardInterrupt

        monkeypatch.setattr(montecarlo, "atexit", types.SimpleNamespace(register=interrupted))
        config = dataclasses.replace(BASE, n_samples=4000)
        with pytest.raises(KeyboardInterrupt):
            run_weak_experiment(config, chunk_size=1000)
        assert montecarlo._pool is None
        assert set(multiprocessing.active_children()) <= before
        monkeypatch.setattr(montecarlo, "atexit", atexit)
        run_weak_experiment(config, chunk_size=1000)
        assert montecarlo._pool_owner == os.getpid() and montecarlo.chunk_plan(4000, 1000)[0] == 2
        montecarlo._close_pool()

    RUN = (
        "import dataclasses, os, erlweak.montecarlo as mc\n"
        "from erlweak import ExperimentConfig, Quadrature\n"
        "c = ExperimentConfig(0, 0, 1, 1, 0, 0, 0.1, Quadrature(0), Quadrature(1.5708), 1.0, 0.2, 50_000, 3)\n"
        "first = mc.run_weak_experiment(c, chunk_size=10_000)\n"
    )

    @staticmethod
    def _env():
        src = str(Path(montecarlo.__file__).resolve().parents[1])
        return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def _python(self, code, *flags):
        return subprocess.run(
            [sys.executable, *flags, "-c", code], env=self._env(), capture_output=True, text=True, timeout=120
        )

    def test_fresh_interpreter_exits_cleanly(self):
        # every sampler runs on the pool, which is closed and joined at exit:
        # nothing may print from a finaliser, nor warn in development mode
        code = self.RUN + (
            "assert first.n_accepted > 2 and mc.chunk_plan(50_000, 10_000) == (min(mc.WORKERS, 5), 5)\n"
            "counts = mc.joint_momentum_histogram(c, 5, chunk_size=10_000)[0]\n"
            "assert 0 < counts.sum() <= 50_000\n"
            "assert len(mc.strong_measurement_correlation([1.0, 0.5], c, chunk_size=10_000)) == 2\n"
            "import tempfile; from erlweak.cli import main\n"  # and a CLI command, which writes files
            "with tempfile.TemporaryDirectory() as out:\n"
            f"    assert main(['histogram', '--config', {str(self.FIG2)!r}, '--out', out, '--quiet']) == 0\n"
        )
        done = self._python(code, "-X", "dev", "-W", "error")
        assert (done.returncode, done.stderr) == (0, "")

    def test_forked_copy_of_the_owner_runs_in_process(self):
        # a fork of the pool's owner has no workers: it runs its chunks itself
        code = self.RUN + (
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    same = mc.run_weak_experiment(c, chunk_size=10_000) == first\n"
            "    os._exit(0 if same and mc.chunk_plan(50_000, 10_000)[0] == 1 else 1)\n"
            "assert os.waitpid(pid, 0)[1] == 0\n"
            "assert mc.chunk_plan(50_000, 10_000)[0] == min(mc.WORKERS, 5)\n"
        )
        done = self._python(code)
        assert (done.returncode, done.stderr) == (0, "")

    def _interrupt(self, code, delay, timeout):
        # Ctrl-C: SIGINT to the child's whole process group, `delay` s after
        # it prints "ready". Returns its exit code, None if it had not exited
        # within `timeout` s, and its stderr. A child that has not exited is
        # sent SIGUSR1 before SIGKILL, on which faulthandler writes the stack
        # of each of its threads to that stderr: where a hang waits
        proc = subprocess.Popen(
            [sys.executable, "-c", self.DUMP + self.RUN + "print('ready', flush=True)\n" + code],
            env=self._env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            if proc.stdout.readline() == "ready\n":
                time.sleep(delay)
                os.killpg(proc.pid, signal.SIGINT)
            with contextlib.suppress(subprocess.TimeoutExpired):
                proc.wait(timeout=timeout)
        finally:
            returncode = proc.poll()
            if returncode is None:
                proc.send_signal(signal.SIGUSR1)
                with contextlib.suppress(subprocess.TimeoutExpired):
                    proc.wait(timeout=1)  # time for the dump; the hang goes on
            with contextlib.suppress(ProcessLookupError):  # the group is gone
                os.killpg(proc.pid, signal.SIGKILL)
            stderr = proc.communicate()[1]
        return returncode, stderr

    DUMP = "import faulthandler, signal\nfaulthandler.register(signal.SIGUSR1)\n"

    def test_a_hang_leaves_its_stack(self):
        # a child that ignores the interrupt (from microseconds after "ready",
        # so the interrupt waits 0.5 s) is reported as not exited, with the
        # stack it hung in
        code = "import time\nsignal.signal(signal.SIGINT, signal.SIG_IGN)\ntime.sleep(30)\n"
        returncode, stderr = self._interrupt(code, 0.5, 0.5)
        assert returncode is None
        assert "most recent call first" in stderr and 'File "<string>"' in stderr, stderr

    def test_interrupt_while_chunks_run_does_not_hang_exit(self):
        # the interrupt terminates a pool that has tasks out, wherever it
        # lands: no exit waits on the chunks that remain
        code = "mc.run_weak_experiment(dataclasses.replace(c, epsilon=0.01, n_samples=200_000_000))\n"
        returncode, stderr = self._interrupt(code, 0.5, 10)
        assert returncode in (0, -signal.SIGINT), stderr

    def test_interrupt_while_pool_idles_does_not_hang_exit(self):
        # the workers ignore SIGINT, so an idle pool is still whole when it
        # is closed and joined at exit; a hang here was intermittent, hence
        # the fresh interpreters at staggered delays
        for run in range(8):
            returncode, stderr = self._interrupt("import time; time.sleep(30)\n", 0.001 * run, 10)
            assert returncode in (0, -signal.SIGINT), stderr


class TestRunWeakExperiment:
    def test_deterministic_estimates(self):
        config = dataclasses.replace(BASE, n_samples=100_000)
        a = run_weak_experiment(config)
        b = run_weak_experiment(config)
        assert a == b

    def test_zero_coupling_no_shift(self):
        config = dataclasses.replace(BASE, g=0.0, mu_P=0.3, n_samples=400_000)
        est = run_weak_experiment(config)
        assert abs(est.mean_Q) <= 3.0 * est.se_Q
        assert abs(est.mean_P - 0.3) <= 3.0 * est.se_P

    def test_momentum_bias_matches_oracle(self):
        config = dataclasses.replace(BASE, n_samples=1_000_000)
        est = run_weak_experiment(config)
        _, oracle_P, _ = oracle_estimate(config)
        _, windowed_P, _ = windowed_oracle(config)
        window_bias = abs(windowed_P - oracle_P)
        assert est.mean_P < 0.0
        assert abs(est.mean_P - oracle_P) <= 3.0 * est.se_P + window_bias

    def test_commuting_postselection_no_momentum_bias(self):
        config = dataclasses.replace(
            BASE, theta_B=Quadrature(0.0), b=0.5, g=0.8, n_samples=400_000
        )
        est = run_weak_experiment(config)
        assert abs(est.mean_P) <= 3.0 * est.se_P

    def test_acceptance_rate_matches_window_probability(self):
        config = dataclasses.replace(BASE, n_samples=400_000)
        est = run_weak_experiment(config)
        prob = acceptance_probability(config)
        se = math.sqrt(prob * (1.0 - prob) / config.n_samples)
        assert abs(est.acceptance_rate - prob) <= 3.0 * se

    def test_window_bias_shrinks_quadratically(self):
        # windowed oracle minus point oracle is O(epsilon^2)
        config = dataclasses.replace(BASE, b=0.8)
        point = windowed_oracle(dataclasses.replace(config, epsilon=1e-6))
        biases = []
        for eps in (0.4, 0.2, 0.1):
            w = windowed_oracle(dataclasses.replace(config, epsilon=eps))
            biases.append(max(abs(a - b) for a, b in zip(w, point)))
        orders = [math.log2(b1 / b2) for b1, b2 in zip(biases, biases[1:])]
        assert min(orders) > 1.8

    def test_coupling_that_moves_A_raises(self, monkeypatch):
        # the coupling followed by the shear q <- q + 1e-9 p is symplectic and
        # moves A = q by 1e-9 p, far above the rounding of the terms of A
        shear = np.eye(4)
        shear[0, 1] = 1e-9
        monkeypatch.setattr(
            montecarlo,
            "coupling_map",
            lambda g, theta_A: SymplecticMap(shear @ coupling_map(g, theta_A).matrix),
        )
        with pytest.raises(AssertionError, match="^repeatability violated: A or P changed"):
            run_weak_experiment(dataclasses.replace(BASE, n_samples=10_000))

    def test_A_check_is_scaled_by_the_terms_that_cancel(self):
        # |P| is about 1e72 and |A| about 1: g sin(theta_A) P cancels in A(x')
        # with a rounding near 1e56, which a bound of 1e-12 max(1, |A|) took
        # for a change of A
        config = ExperimentConfig(
            0.0, 0.0, 2.504e-6, 7.88e-74, 2.52, 0.835, 0.0107,
            Quadrature(HALF_PI), Quadrature(math.pi), 2.44, None, 2000, 1,
        )
        assert run_weak_experiment(config).n_accepted >= 2

    def test_sampling_passes_split_runs_of_shared_draws(self):
        # consecutive configs that differ only in their windows share a pass,
        # at most WINDOWS_PER_PASS at a time; another draw field starts anew
        per_pass = montecarlo.WINDOWS_PER_PASS
        windows = [dataclasses.replace(BASE, b=0.1 * k, epsilon=0.1 + k) for k in range(per_pass + 3)]
        other = dataclasses.replace(BASE, g=0.2)
        passes = list(montecarlo._sampling_passes([*windows, other, windows[0]]))
        assert [len(p) for p in passes] == [per_pass, 3, 1, 1]
        assert [c for p in passes for c in p] == [*windows, other, windows[0]]

    def test_insufficient_acceptance(self):
        config = dataclasses.replace(BASE, b=40.0, epsilon=0.01, n_samples=1_000)
        with pytest.raises(InsufficientAcceptanceError) as excinfo:
            run_weak_experiment(config)
        assert excinfo.value.acceptance_rate == 0.0

    def test_merge_skips_empty_parts_and_matches_the_whole(self):
        values = np.random.default_rng(3).normal(0.5, 2.0, size=(3, 1000))
        cuts = [0, 0, 10, 10, 400, 1000, 1000]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty part must not take a mean
            parts = [montecarlo._moments(values[:, a:b].copy()) for a, b in zip(cuts, cuts[1:])]
            n, mean, scatter = montecarlo._merge(parts)
        _, whole_mean, whole_scatter = montecarlo._moments(values.copy())
        assert n == 1000
        np.testing.assert_allclose(mean, whole_mean, rtol=1e-13)
        np.testing.assert_allclose(scatter, whole_scatter, rtol=1e-13)

    def test_chunks_without_accepted_draws(self):
        # about 0.2 accepted per chunk of 100 draws: most chunks accept none
        config = dataclasses.replace(BASE, b=0.5, epsilon=0.002, n_samples=50_000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = run_weak_experiment(config, chunk_size=100)
        assert 2 <= est.n_accepted < 500
        assert all(map(math.isfinite, (est.mean_Q, est.mean_P, est.mean_A, est.se_Q, est.se_P, est.se_A)))

    def test_adaptive_epsilon_recorded(self):
        config = dataclasses.replace(BASE, n_samples=50_000)
        est = run_weak_experiment(config)
        assert est.epsilon == pytest.approx(config.resolved_epsilon())
        assert est.n_accepted <= est.n_samples
        assert 0.0 < est.acceptance_rate <= 1.0


def test_delta_p_is_the_device_momentum_spread():
    config = dataclasses.replace(BASE, delta_Q=0.7, omega=0.5)
    assert config.delta_P == math.sqrt(1.0 + 0.5**2) / (2.0 * 0.7)
    assert config.device().cov[1, 1] == pytest.approx(config.delta_P**2, rel=1e-14)


@pytest.mark.parametrize("field, value", [("sigma", 0.0), ("sigma", -1.0), ("delta_Q", 0.0)])
def test_non_positive_spread_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        dataclasses.replace(BASE, **{field: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "field", ["mu_q", "mu_p", "sigma", "delta_Q", "mu_P", "omega", "g", "theta_A", "theta_B", "b", "epsilon"]
)
def test_non_finite_field_rejected(field, value):
    # nan fails every comparison, so no range check catches it: a nan mean
    # would fail the repeatability check falsely, and b = inf gives a nan oracle
    if field.startswith("theta"):
        value = Quadrature(value)
    with pytest.raises(ValueError, match=f"^{field} must be finite$"):
        dataclasses.replace(BASE, **{field: value})


Q0, Q90 = Quadrature(0.0), Quadrature(HALF_PI)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: weak_value_gaussian(0.0, 0.0, 0.0, Q0, Q90, 1.0), ValueError, "sigma must be positive"),
        (
            lambda: postselected_means_gaussian(0.0, 0.0, -1.0, 1.0, 0.0, 0.1, Q0, Q90, 1.0),
            ValueError,
            "sigma must be positive",
        ),
        (
            lambda: postselected_means_gaussian(0.0, 0.0, 1.0, 0.0, 0.0, 0.1, Q0, Q90, 1.0),
            ValueError,
            "delta_Q must be positive",
        ),
        (lambda: gaussian_regime_margin(0.1, 1.0, -1.0, Q0, Q90), ValueError, "sigma must be positive"),
        (lambda: dataclasses.replace(BASE, epsilon=0.0), ValueError, "epsilon must be positive"),
        (lambda: dataclasses.replace(BASE, n_samples=0), ValueError, "n_samples must be >= 1"),
        (lambda: dataclasses.replace(BASE, seed=-1), ValueError, "seed must fit in 64 bits"),
        (lambda: dataclasses.replace(BASE, seed=2**64), ValueError, "seed must fit in 64 bits"),
        (lambda: SymplecticMap(np.eye(2)), ValueError, "matrix must be 4x4"),
        (lambda: BASE.joint().marginal(2), IndexError, "mode 2 out of range for 2 modes"),
        (
            lambda: strong_measurement_correlation([1.0], dataclasses.replace(BASE, n_samples=1)),
            ValueError,
            "degenerate variance in correlation estimate",
        ),
    ],
    ids=[
        "weak-value-sigma",
        "exact-means-sigma",
        "exact-means-delta_Q",
        "regime-margin-sigma",
        "config-epsilon",
        "config-n_samples",
        "config-negative-seed",
        "config-seed-past-64-bits",
        "map-not-4x4",
        "marginal-mode",
        "correlation-of-one-draw",
    ],
)
def test_public_input_check(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


class TestEvolvedJointCache:
    def test_built_once_and_read_only(self):
        config = dataclasses.replace(BASE)
        evolved = config.evolved_joint()
        assert config.evolved_joint() is evolved
        assert not evolved.mean.flags.writeable
        assert not evolved.cov.flags.writeable
        with pytest.raises(ValueError):
            evolved.mean[0] = 1.0

    def test_replace_gives_fresh_state(self):
        before = BASE.evolved_joint()
        config = dataclasses.replace(BASE, g=0.7)
        after = config.evolved_joint()
        assert after is not before
        assert after.cov[2, 0] == pytest.approx(0.7)  # Q' = Q + g q
        assert BASE.evolved_joint().cov[2, 0] == pytest.approx(0.1)

    def test_equality_and_hash_ignore_the_cache(self):
        fresh = dataclasses.replace(BASE)
        BASE.evolved_joint()
        assert fresh == BASE
        assert hash(fresh) == hash(BASE)
        assert dataclasses.replace(BASE, b=2.0) != BASE

    def test_pickle_round_trip(self):
        BASE.evolved_joint()
        oracle_estimate(BASE)
        windowed_oracle(BASE)
        acceptance_probability(BASE)
        fields = {f.name for f in dataclasses.fields(BASE)}
        assert len(fields) == 13 and len(vars(BASE)) > 13  # caches filled
        assert set(BASE.__getstate__()) == fields  # the caches stay behind
        restored = pickle.loads(pickle.dumps(BASE))
        assert set(vars(restored)) == fields
        assert restored == BASE
        assert hash(restored) == hash(BASE)
        evolved = restored.evolved_joint()
        np.testing.assert_array_equal(evolved.mean, BASE.evolved_joint().mean)
        np.testing.assert_array_equal(evolved.cov, BASE.evolved_joint().cov)
        assert not evolved.cov.flags.writeable
        assert oracle_estimate(restored) == oracle_estimate(BASE)
        assert windowed_oracle(restored) == windowed_oracle(BASE)
        assert acceptance_probability(restored) == acceptance_probability(BASE)
        assert restored.resolved_epsilon() == BASE.resolved_epsilon()

    def test_replace_gives_fresh_b_moments(self):
        BASE.resolved_epsilon()
        moved = dataclasses.replace(BASE, b=3.0)
        turned = dataclasses.replace(BASE, theta_B=Quadrature(0.0))
        for config in (moved, turned):
            fresh = ExperimentConfig(**{f.name: getattr(config, f.name) for f in dataclasses.fields(config)})
            assert acceptance_probability(config) == acceptance_probability(fresh)
            assert windowed_oracle(config) == windowed_oracle(fresh)
        assert acceptance_probability(moved) < acceptance_probability(BASE)
        # theta_B = 0 reads B = q', which the coupling leaves at variance sigma^2 = 1
        assert turned.resolved_epsilon() == 0.05
        assert BASE.resolved_epsilon() == pytest.approx(0.05 * math.sqrt(0.25 + 0.1**2 * 0.25), rel=1e-12)


# (config fields, (resolved epsilon, oracle_estimate, windowed_oracle,
# acceptance_probability)); b sits at 0, 0, 6, -6, 30 and -30 std of B. The
# epsilon and oracle_estimate values were recorded before the B moments were
# cached with the evolved state; the windowed values since the windowed
# oracle is the point oracle at E[B | window], which moved 7 of them by 1 or
# 2 ulp (the values before and these alike lie within 2e-13 relative of the
# 50-digit `_mp_window`)
PINNED_ORACLES = [
    (
        dict(mu_q=0.0, mu_p=0.0, sigma=1.0, delta_Q=1.0, mu_P=0.0, omega=0.0, g=0.1,
             theta_A=0.0, theta_B=1.5707963267948966, b=0.0, epsilon=None),
        (0.025124689052802227, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), 0.039877611676744924),
    ),
    (
        dict(mu_q=0.2, mu_p=-0.3, sigma=0.7, delta_Q=1.3, mu_P=0.6, omega=0.5, g=0.3,
             theta_A=0.3, theta_B=1.9, b=-0.5284711882263959, epsilon=0.14487515336731832),
        (
            0.14487515336731832,
            (0.0307233707480158, 0.6, 0.10241123582671936),
            (0.0307233707480158, 0.6, 0.10241123582671936),
            0.15851941887820603,
        ),
    ),
    (
        dict(mu_q=-0.4, mu_p=0.1, sigma=1.6, delta_Q=0.8, mu_P=-0.9, omega=-1.2, g=0.8,
             theta_A=2.5, theta_B=0.6, b=8.18628084506155, epsilon=None),
        (
            0.0761773908901738,
            (-6.7135343031906105, 1.9416061843149612, -6.1558998978879655),
            (-6.707722861832244, 1.9392530423903893, -6.150487248851966),
            6.164832735781081e-10,
        ),
    ),
    (
        dict(mu_q=0.9, mu_p=0.5, sigma=0.4, delta_Q=2.2, mu_P=0.0, omega=1.1, g=1.4,
             theta_A=4.0, theta_B=5.5, b=-5.952562895806585, epsilon=0.05197996274902936),
        (
            0.05197996274902936,
            (-3.062822992783595, 0.9200490236288893, -5.354079126584409),
            (-3.0614073757231473, 0.9192871284929193, -5.350445909677041),
            6.164832735781125e-10,
        ),
    ),
    (
        dict(mu_q=0.1, mu_p=0.7, sigma=2.5, delta_Q=0.5, mu_P=0.4, omega=0.2, g=0.05,
             theta_A=1.0, theta_B=2.0471975511965974, b=35.38872316944913, epsilon=None),
        (
            0.05804974396110697,
            (-2.041860490633112, -0.7636568378397043, -38.59940820143204),
            (-2.04034642256146, -0.7628073469005711, -38.57076047642042),
            2.0907827325415748e-197,
        ),
    ),
    (
        dict(mu_q=-0.6, mu_p=-0.8, sigma=1.1, delta_Q=1.7, mu_P=0.3, omega=-0.4, g=0.6,
             theta_A=0.2, theta_B=4.4, b=-16.10046498893128, epsilon=0.2867171668177398),
        (
            0.2867171668177398,
            (17.689982402399924, -2.4453272286374053, 20.36376872726183),
            (17.408127879631678, -2.4026667509731023, 20.03572243121112),
            1.439474552228885e-191,
        ),
    ),
]


def _pinned_config(fields):
    return ExperimentConfig(
        **{**fields, "theta_A": Quadrature(fields["theta_A"]), "theta_B": Quadrature(fields["theta_B"])},
        n_samples=1,
        seed=0,
    )


@pytest.mark.parametrize("fields, expected", PINNED_ORACLES)
def test_oracles_pinned(fields, expected):
    config = _pinned_config(fields)
    got = (
        config.resolved_epsilon(),
        oracle_estimate(config),
        windowed_oracle(config),
        acceptance_probability(config),
    )
    assert got == expected


@pytest.mark.parametrize("fields, expected", PINNED_ORACLES)
def test_oracle_estimate_is_the_mean_of_the_conditioned_state(fields, expected):
    # the point oracle reads (Q, P, A) off the one conditional mean that
    # gaussian_condition also builds its state from, bit for bit
    config = _pinned_config(fields)
    mean = gaussian_condition(config.evolved_joint(), 0, config.theta_B, config.b).mean
    mean_A = float(quadrature_vector(2, 0, config.theta_A) @ mean)
    assert oracle_estimate(config) == (float(mean[2]), float(mean[3]), mean_A)


def _regression_configs():
    """Configs with mu_P != 0, b at -32, 0 and 32 std of B, and an adaptive
    or an explicit window."""
    for mu_P, z, epsilon in itertools.product((0.6, -0.9), (-32.0, 0.0, 32.0), (None, 0.3)):
        config = ExperimentConfig(
            0.2, -0.3, 0.7, 1.3, mu_P, 0.5, 0.8, Quadrature(0.3), Quadrature(1.9), 0.0, epsilon, 1, 0
        )
        mean_B, var_B = quadrature_moments(config.evolved_joint(), 0, config.theta_B)
        yield dataclasses.replace(config, b=mean_B + z * math.sqrt(var_B))


@pytest.mark.parametrize("config", list(_regression_configs()))
def test_oracles_read_one_regression_with_the_bits_of_the_conditioning_oracle(config):
    # a config regresses its evolved state on B once; each oracle, first call
    # or cached, gives the bits of oracle_postselected_means, which regresses
    # afresh, at b and at the window's E[B | window]
    evolved = config.evolved_joint()
    mean_B, var_B = quadrature_moments(evolved, 0, config.theta_B)
    s = math.sqrt(var_B)
    prob, shift = montecarlo._normal_window((config.b - mean_B) / s, config.resolved_epsilon() / s)
    point = oracle_postselected_means(evolved, config.theta_A, config.theta_B, config.b)
    window = oracle_postselected_means(evolved, config.theta_A, config.theta_B, mean_B + s * shift)
    fresh = dataclasses.replace(config)
    assert oracle_estimate(fresh) == point
    assert (windowed_oracle(fresh), acceptance_probability(fresh)) == (window, prob)
    fresh = dataclasses.replace(config)
    assert (windowed_oracle(fresh), oracle_estimate(fresh)) == (window, point)
    assert acceptance_probability(fresh) == prob
    assert (oracle_estimate(fresh), windowed_oracle(fresh)) == (point, window)  # cached


def _mp_window(config, epsilon):
    """50-digit (probability, windowed means (Q, P, A)) from the float
    moments of the evolved joint, each tail evaluated on its own side."""
    mp = pytest.importorskip("mpmath").mp
    mp.dps = 50
    evolved = config.evolved_joint()
    v = np.array([*config.theta_B.vector, 0.0, 0.0])
    mean = [mp.mpf(float(x)) for x in evolved.mean]
    cov = [[mp.mpf(float(x)) for x in row] for row in evolved.cov]
    vm = [mp.mpf(float(x)) for x in v]

    def dot(a, b):
        return mp.fsum(x * y for x, y in zip(a, b))

    cov_v = [dot(row, vm) for row in cov]
    mean_B, var_B = dot(vm, mean), dot(vm, cov_v)
    s = mp.sqrt(var_B)
    lo = (mp.mpf(config.b) - mp.mpf(epsilon) - mean_B) / s
    hi = (mp.mpf(config.b) + mp.mpf(epsilon) - mean_B) / s
    if lo >= 0:
        prob = (mp.erfc(lo / mp.sqrt(2)) - mp.erfc(hi / mp.sqrt(2))) / 2
    elif hi <= 0:
        prob = (mp.erfc(-hi / mp.sqrt(2)) - mp.erfc(-lo / mp.sqrt(2))) / 2
    else:
        prob = (mp.erf(hi / mp.sqrt(2)) - mp.erf(lo / mp.sqrt(2))) / 2
    offset = s * (mp.npdf(lo) - mp.npdf(hi)) / prob
    a = [mp.mpf(float(x)) for x in config.theta_A.vector]
    rows = ([0, 0, 1, 0], [0, 0, 0, 1], [*a, 0, 0])
    means = [dot(u, mean) + dot(u, cov_v) / var_B * offset for u in rows]
    return prob, means


class TestWindowTails:
    CONFIG = dataclasses.replace(BASE, g=0.3, omega=0.5, mu_P=0.4, mu_q=0.2, theta_A=Quadrature(0.3))

    def _at(self, z):
        mean_B, var_B = quadrature_moments(self.CONFIG.evolved_joint(), 0, self.CONFIG.theta_B)
        return dataclasses.replace(self.CONFIG, b=mean_B + z * math.sqrt(var_B)), math.sqrt(var_B)

    @pytest.mark.parametrize("width", [1e-3, 0.05, 1.0, 4.0])
    def test_matches_50_digit_reference(self, width):
        # z = (b - mean_B) / std_B over both tails; width = epsilon / std_B
        for z in np.linspace(-32.0, 32.0, 65):
            config, std_B = self._at(float(z))
            config = dataclasses.replace(config, epsilon=width * std_B)
            ref_prob, ref_means = _mp_window(config, config.epsilon)
            prob = acceptance_probability(config)
            assert prob > 0.0
            assert abs(prob - ref_prob) <= 1e-10 * ref_prob, (z, width)
            for x, r in zip(windowed_oracle(config), ref_means):
                assert math.isfinite(x)
                assert abs(x - r) <= 1e-10 * max(1.0, abs(r)), (z, width)

    @pytest.mark.parametrize("half_width", [10.0**k for k in np.arange(-6.0, 0.25, 0.5)])
    def test_normal_window_matches_50_digits(self, half_width):
        # (probability, mean) of the standard normal window centred at z with
        # this half-width, against mpmath at the exact ends z -+ half_width;
        # narrow windows are where a difference of Mills ratios cancels
        mp = pytest.importorskip("mpmath").mp
        mp.dps = 50
        for z in np.linspace(-32.0, 32.0, 129):
            lo, hi = mp.mpf(float(z)) - half_width, mp.mpf(float(z)) + half_width
            if lo >= 0:
                ref_prob = (mp.erfc(lo / mp.sqrt(2)) - mp.erfc(hi / mp.sqrt(2))) / 2
            elif hi <= 0:
                ref_prob = (mp.erfc(-hi / mp.sqrt(2)) - mp.erfc(-lo / mp.sqrt(2))) / 2
            else:
                ref_prob = (mp.erf(hi / mp.sqrt(2)) - mp.erf(lo / mp.sqrt(2))) / 2
            ref_mean = (mp.npdf(lo) - mp.npdf(hi)) / ref_prob
            prob, mean = montecarlo._normal_window(float(z), half_width)
            assert abs(prob - ref_prob) <= 1e-12 * ref_prob, z
            assert abs(mean - ref_mean) <= 1e-12 * abs(ref_mean), z

    def test_ten_sigma_postselection(self):
        # g=0.3, omega=0.5, theta_A=0, theta_B=pi/2, b=5: about 10 std of B
        config = dataclasses.replace(BASE, g=0.3, omega=0.5, b=5.0)
        mean_B, var_B = quadrature_moments(config.evolved_joint(), 0, config.theta_B)
        assert (config.b - mean_B) / math.sqrt(var_B) > 9.0
        prob = acceptance_probability(config)
        ref_prob, ref_means = _mp_window(config, config.resolved_epsilon())
        assert 0.0 < prob < 1e-20
        assert prob == pytest.approx(float(ref_prob), rel=1e-10)
        means = windowed_oracle(config)
        assert all(math.isfinite(x) for x in means)
        assert means == pytest.approx([float(r) for r in ref_means], rel=1e-10, abs=1e-10)

    def test_beyond_underflow_mean_stays_finite(self):
        # the probability underflows past about 38 std; the mean does not
        config, _ = self._at(60.0)
        assert acceptance_probability(config) == 0.0
        assert all(math.isfinite(x) for x in windowed_oracle(config))

    @pytest.mark.parametrize("z", [0.3, -4.0, 12.0, -30.0])
    def test_tends_to_point_oracle(self, z):
        config, std_B = self._at(z)
        point = oracle_estimate(config)
        gaps = []
        for width in (1e-2, 1e-3, 1e-4):
            w = windowed_oracle(dataclasses.replace(config, epsilon=width * std_B))
            gaps.append(max(abs(a - b) for a, b in zip(w, point)))
        assert gaps[-1] <= 1e-8 * max(1.0, abs(z))
        assert gaps[1] <= 0.02 * gaps[0]  # O(epsilon^2)

    def test_empty_window_raises(self):
        config = dataclasses.replace(BASE, b=1e20, epsilon=1.0)
        with pytest.raises(InsufficientAcceptanceError):
            windowed_oracle(config)
        assert acceptance_probability(config) == 0.0


class TestHistogram:
    def test_total_count(self):
        config = dataclasses.replace(BASE, n_samples=50_000)
        counts, p_edges, P_edges = joint_momentum_histogram(config, bins=21)
        assert counts.sum() <= config.n_samples  # 5-sigma auto range may clip
        assert counts.sum() >= 0.99 * config.n_samples
        counts, _, _ = joint_momentum_histogram(
            config, bins=21, hist_range=((-50.0, 50.0), (-50.0, 50.0))
        )
        assert counts.sum() == config.n_samples
        assert len(p_edges) == 22 and len(P_edges) == 22

    def test_zero_coupling_product_structure(self):
        config = dataclasses.replace(BASE, g=0.0, n_samples=400_000)
        counts, p_edges, P_edges = joint_momentum_histogram(config, bins=15)
        centers_P = 0.5 * (P_edges[:-1] + P_edges[1:])
        slice_means = []
        for i in range(counts.shape[0]):
            if counts[i].sum() > 2_000:
                slice_means.append(counts[i] @ centers_P / counts[i].sum())
        assert max(abs(m) for m in slice_means) < 0.05

    def test_conditional_device_momentum_slope(self):
        # theta_A=0: p' = p - g P, so E[P | p'=b] decreases linearly in b
        config = dataclasses.replace(BASE, g=0.5, n_samples=400_000)
        counts, p_edges, P_edges = joint_momentum_histogram(config, bins=31)
        centers_p = 0.5 * (p_edges[:-1] + p_edges[1:])
        centers_P = 0.5 * (P_edges[:-1] + P_edges[1:])
        xs, ys = [], []
        for i in range(counts.shape[0]):
            if counts[i].sum() > 3_000:
                xs.append(centers_p[i])
                ys.append(counts[i] @ centers_P / counts[i].sum())
        slope = np.polyfit(xs, ys, 1)[0]
        # exact regression coefficient from the evolved covariance
        cov = config.evolved_joint().cov
        expected = cov[3, 1] / cov[1, 1]
        assert expected < 0.0
        assert slope == pytest.approx(expected, rel=0.1)

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            joint_momentum_histogram(BASE, bins=1)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            joint_momentum_histogram(BASE, bins=10, hist_range=((1.0, 1.0), (0.0, 1.0)))

    @pytest.mark.parametrize(
        "hist_range",
        [
            ((-1e308, 1e308), (0.0, 1.0)),  # finite bounds, the span overflows
            ((0.0, math.inf), (0.0, 1.0)),
            ((0.0, 1.0), (math.nan, 1.0)),
            ((0.0, 1.0), (1.0, 1.0 + 1e-15)),  # too narrow for 10 distinct edges
        ],
    )
    def test_non_finite_or_collapsed_edges_rejected(self, hist_range):
        with pytest.raises(ValueError, match="finite|strictly increasing"):
            joint_momentum_histogram(BASE, bins=10, hist_range=hist_range)


class TestBinIndex:
    """`_bins` gives the bin index np.histogram2d takes from a binary
    search: searchsorted(edges, x, "right"), one less on the last edge."""

    @staticmethod
    def _assert_matches_searchsorted(edges, x):
        expected = np.searchsorted(edges, x, "right") - (x == edges[-1])
        work = np.empty((2, 1, x.size))
        got = montecarlo._bins(x[None], (edges,), montecarlo._bin_margin((edges,)), work)[0]
        np.testing.assert_array_equal(got, expected)

    @staticmethod
    def _probes(edges, rng, n=2000):
        # every edge, its neighbours on both sides, nan, +-inf and a spread
        # of points over and around the range
        lo, hi = edges[0], edges[-1]
        spread = rng.uniform(lo - (hi - lo) / 2, hi + (hi - lo) / 2, n)
        neighbours = [np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf)]
        return np.concatenate([edges, *neighbours, [np.nan, np.inf, -np.inf], spread])

    @pytest.mark.parametrize("bins", [2, 7, 61, 1000])
    @pytest.mark.parametrize("span", [5e-323, 1e-310, 1e-300, 1e-12, 1.0, 3e7, 1e300])
    def test_matches_searchsorted(self, bins, span):
        rng = np.random.default_rng(bins)
        lo = rng.uniform(-2.0, 1.0) * span
        hi = lo + span
        uniform = np.linspace(lo, hi, bins + 1)  # as np.histogram2d makes them
        scattered = np.sort(np.concatenate([[lo, hi], rng.uniform(lo, hi, bins - 1)]))
        repeated = scattered.copy()
        repeats = rng.choice(bins, size=max(1, bins // 4))
        repeated[repeats + 1] = repeated[repeats]
        repeated[1], repeated[-2] = repeated[0], repeated[-1]  # repeats at both ends
        for edges in (uniform, scattered, np.sort(repeated), np.full(bins + 1, lo)):
            self._assert_matches_searchsorted(edges, self._probes(edges, rng))

    def test_subnormal_range_is_far_from_the_arithmetic_index(self):
        # the edges of (0, 5e-323) in 7 bins are rounded to whole multiples
        # of the smallest subnormal, more than one bin from the arithmetic
        # index: every draw of this span takes the searchsorted fallback
        edges = np.histogram2d(np.empty(0), np.empty(0), bins=7, range=((0, 5e-323),) * 2)[1]
        assert len(np.unique(edges)) == len(edges)
        x = self._probes(edges, np.random.default_rng(0))
        self._assert_matches_searchsorted(edges, x)
        with np.errstate(all="ignore"):
            guess = np.clip(np.nan_to_num((x - edges[0]) / (edges[-1] - edges[0]) * 7), 0, 6)
        inside = (x >= edges[0]) & (x <= edges[-1])
        exact = np.searchsorted(edges, x, "right") - 1 - (x == edges[-1])
        assert np.max(np.abs(guess.astype(int) - exact)[inside]) > 1

    def test_histogram_equals_histogram2d_on_edge_values(self, monkeypatch):
        bins, hist_range = (13, 7), ((-0.3, 0.4), (0.0, 5e-323))
        _, p_edges, P_edges = np.histogram2d(np.empty(0), np.empty(0), bins=bins, range=hist_range)
        rng = np.random.default_rng(3)
        n = 5000
        sample = np.zeros((n, 4))
        sample[:, 1] = rng.choice(self._probes(p_edges, rng), n)
        sample[:, 3] = rng.choice(self._probes(P_edges, rng), n)

        def blocks(source, k, rows):  # chunks of 2000 rows in (p', P') blocks of 700
            start = 2000 * k
            for s in range(start, start + rows, 700):
                yield np.ascontiguousarray(sample[s : min(s + 700, start + rows), 1::2].T)

        monkeypatch.setattr(montecarlo, "WORKERS", 1)
        monkeypatch.setattr(montecarlo, "_blocks", blocks)
        config = dataclasses.replace(BASE, n_samples=n)
        got = joint_momentum_histogram(config, bins, hist_range, chunk_size=2000)
        ref = np.histogram2d(sample[:, 1], sample[:, 3], bins=bins, range=hist_range)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype
            np.testing.assert_array_equal(g, r)
        assert 0 < got[0].sum() < n


class TestTrustedBinIndex:
    """The histogram's binning trusts its arithmetic guess
    g(x) = fl(fl(x s) + o) where g lies more than the edges' margin
    delta = max_k |g(e_k) - (k + 1/2)| from every half-integer, and sends
    only the other draws to `_searchsorted_index`. The index stays exact where
    delta is tiny, large, or too large to trust."""

    RANGES = {  # (bins, range) of each kind of margin
        "tiny": (61, (-3.4113, 3.8729)),  # O(1), like the automatic +-5 std box
        "far offset": (61, (1e8, 1e8 + 1e-3)),  # x s ~ 6e12 keeps 10 bits below the point
        "untrusted": (7, (0.0, 5e-323)),  # a subnormal span: n / span overflows
    }

    @staticmethod
    @contextlib.contextmanager
    def _fallback_draws():
        """The draws that reach the fallback, `_searchsorted_index`, one
        array per call."""
        seen = []
        searchsorted_index = montecarlo._searchsorted_index

        def counting(x, edges):
            seen.append(x.copy())
            return searchsorted_index(x, edges)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(montecarlo, "_searchsorted_index", counting)
            yield seen

    @staticmethod
    def _edges(bins, hist_range):
        return np.histogram2d(np.empty(0), np.empty(0), bins=bins, range=(hist_range,) * 2)[1]

    @staticmethod
    def _guess_and_delta(edges, x):
        """(clamped g(x), delta) for these edges."""
        s, o, top, _ = montecarlo._bin_margin((edges,))[:, 0, 0]
        assert top == edges.size
        with np.errstate(all="ignore"):
            delta = np.max(np.abs(edges * s + o - np.arange(edges.size) - 0.5))
            return np.fmax(np.fmin(x * s + o, top), 0.0), delta

    @classmethod
    def _assert_only_draws_next_to_an_edge_take_the_fallback(cls, edges, x):
        """Bin x exactly, sending to the fallback exactly the x whose guess
        is within delta of a half-integer, or every x where delta is not
        below 1/4; return the x that took it."""
        with cls._fallback_draws() as seen:
            TestBinIndex._assert_matches_searchsorted(edges, x)
        guess, delta = cls._guess_and_delta(edges, x)
        near = x[np.abs(guess - np.floor(guess) - 0.5) <= delta] if delta < 0.25 else x
        seen = np.concatenate([np.empty(0), *seen])
        np.testing.assert_array_equal(np.sort(seen), np.sort(near))
        return seen

    def test_margin_of_each_kind(self):
        delta, trust = {}, {}
        for kind, spec in self.RANGES.items():
            edges = self._edges(*spec)
            delta[kind] = self._guess_and_delta(edges, edges)[1]
            trust[kind] = montecarlo._bin_margin((edges,))[3, 0, 0]
        assert 0 < delta["tiny"] < 1e-13  # a few ulp of n
        assert 1e-5 < delta["far offset"] < 0.25
        assert not delta["untrusted"] < 0.25 and trust["untrusted"] == 0
        for kind in ("tiny", "far offset"):
            assert trust[kind] == 0.5 - delta[kind]

    @pytest.mark.parametrize("kind", RANGES)
    def test_only_draws_next_to_an_edge_take_the_fallback(self, kind):
        edges = self._edges(*self.RANGES[kind])
        x = TestBinIndex._probes(edges, np.random.default_rng(5), n=20_000)
        seen = self._assert_only_draws_next_to_an_edge_take_the_fallback(edges, x)
        # every edge, and (with a margin to trust) not every draw
        assert np.isin(edges, seen).all()
        assert (seen.size == x.size) == (kind == "untrusted")

    @pytest.mark.parametrize("kind", RANGES)
    def test_histogram_equals_histogram2d(self, kind, monkeypatch):
        bins, span = self.RANGES[kind]
        hist_range = (span, self.RANGES["tiny"][1])
        rng = np.random.default_rng(7)
        n = 6000
        pts = np.empty((2, n))
        for row, (edges_bins, edges_span) in enumerate(((bins, span), (13, hist_range[1]))):
            pts[row] = rng.choice(TestBinIndex._probes(self._edges(edges_bins, edges_span), rng), n)

        def blocks(source, k, rows):  # chunks of 2500 draws in (p', P') blocks of 900
            for s in range(2500 * k, 2500 * k + rows, 900):
                yield np.ascontiguousarray(pts[:, s : min(s + 900, 2500 * k + rows)])

        monkeypatch.setattr(montecarlo, "WORKERS", 1)
        monkeypatch.setattr(montecarlo, "_blocks", blocks)
        config = dataclasses.replace(BASE, n_samples=n)
        got = joint_momentum_histogram(config, (bins, 13), hist_range, chunk_size=2500)
        ref = np.histogram2d(pts[0], pts[1], bins=(bins, 13), range=hist_range)
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)
        assert 0 < got[0].sum() < n

    @settings(derandomize=True, deadline=None)
    @given(
        bins=st.integers(2, 300),
        lo=st.floats(-1e300, 1e300) | st.sampled_from((0.0, 1e8, -1e15)),
        log_span=st.floats(-323.5, 300.0),
        log_relative=st.none() | st.floats(-16.0, 0.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_only_draws_next_to_an_edge_take_the_fallback(
        self, bins, lo, log_span, log_relative, seed
    ):
        # np.histogram2d's edges of any finite range, whatever their margin:
        # a span in absolute terms, or relative to |lo| (a far offset)
        span = 10.0**log_span if log_relative is None else abs(lo) * 10.0**log_relative
        with np.errstate(all="ignore"):
            edges = self._edges(bins, (lo, lo + span))
        if np.isfinite(edges).all() and edges[0] < edges[-1]:
            x = TestBinIndex._probes(edges, np.random.default_rng(seed), n=500)
            self._assert_only_draws_next_to_an_edge_take_the_fallback(edges, x)

    def test_automatic_box_sends_no_draw_to_the_fallback(self, monkeypatch):
        # a config of the histogram benchmark's kind, on its automatic +-5 std box
        monkeypatch.setattr(montecarlo, "WORKERS", 1)
        config = dataclasses.replace(
            BASE, mu_q=0.2, mu_p=-0.3, sigma=1.3, delta_Q=0.8, mu_P=0.2, omega=0.4, g=0.7,
            theta_A=Quadrature(2.0), n_samples=2**18,
        )
        with self._fallback_draws() as seen:
            counts, p_edges, P_edges = joint_momentum_histogram(config, 61)
        assert seen == []
        assert counts.sum() > 0.999 * config.n_samples
        for edges in (p_edges, P_edges):
            assert 0 < self._guess_and_delta(edges, edges)[1] < 1e-13


class TestStrongMeasurement:
    def test_correlation_rises_to_one(self):
        config = dataclasses.replace(BASE, g=1.0, n_samples=100_000)
        seq = [10.0, 1.0, 0.1, 0.01]
        corr = strong_measurement_correlation(seq, config)
        assert all(a < b for a, b in zip(corr, corr[1:]))
        assert corr[-1] > 0.999

    def test_matches_exact_formula(self):
        config = dataclasses.replace(BASE, g=1.0, n_samples=100_000)
        seq = [10.0, 1.0, 0.1]
        corr = strong_measurement_correlation(seq, config)
        fisher_se = 3.0 / math.sqrt(config.n_samples - 3)
        for r, delta_Q in zip(corr, seq):
            rho = exact_strong_correlation(delta_Q, config)
            assert abs(math.atanh(r) - math.atanh(rho)) < fisher_se

    def test_state_that_underflows_is_named(self):
        # delta_Q^2 underflows to 0 in the device state: the sampler reads the
        # one checked coupled state, so the error names it
        with pytest.raises(OverflowError, match="^the coupled state overflows or underflows: "):
            strong_measurement_correlation([1e-200], BASE)

    def test_zero_coupling_uncorrelated(self):
        config = dataclasses.replace(BASE, g=0.0, n_samples=100_000)
        (corr,) = strong_measurement_correlation([1.0], config)
        assert abs(corr) < 4.0 / math.sqrt(config.n_samples)


class TestStreamingEngine:
    """The histogram and the correlation reduce chunk by chunk; their results
    must match the same reductions over the materialised sample."""

    CONFIG = dataclasses.replace(
        BASE, g=0.4, omega=0.5, mu_P=0.3, mu_q=0.2, theta_A=Quadrature(0.6), n_samples=25_500, seed=5
    )
    CHUNK = 1000  # n_samples is not a multiple of it

    def _evolved_points(self, joint):
        config = self.CONFIG
        pts = sample_state(joint, config.n_samples, config.seed, self.CHUNK)
        return pts, apply_to_points(coupling_map(config.g, config.theta_A), pts)

    def _readouts(self, joint, chunk=CHUNK):
        """The folded read-outs of every draw: (p', P') and (A, Q'), as the
        histogram and the correlation draw them, as (2, n) arrays."""
        config = self.CONFIG
        smap = coupling_map(config.g, config.theta_A)
        readouts = (smap.matrix[1::2], np.array([[*config.theta_A.vector, 0.0, 0.0], smap.matrix[2]]))
        out = []
        for readout in readouts:
            source = montecarlo._source(joint, config.seed, readout)
            chunks = montecarlo._chunk_rows(config.n_samples, chunk)
            out.append(np.concatenate([b.copy() for k, rows in chunks for b in montecarlo._blocks(source, k, rows)], axis=1))
        return out

    def _assert_histogram_matches(self, bins, hist_range, chunk=CHUNK):
        config = self.CONFIG
        (p, P), _ = self._readouts(config.joint(), chunk)
        ref = np.histogram2d(p, P, bins=bins, range=hist_range)
        got = joint_momentum_histogram(config, bins, hist_range, chunk_size=chunk)
        for g, r in zip(got, ref):
            assert g.dtype == r.dtype
            np.testing.assert_array_equal(g, r)
        return got[0]

    def test_folded_readouts_match_evolved_points(self):
        # offset + (R L) z against R (mean + L z) through apply_to_points:
        # equal up to rounding, within 4 ulp of the terms' magnitude
        config = self.CONFIG
        pts, evolved = self._evolved_points(config.joint())
        a = config.theta_A.value(pts[0], pts[1])
        momenta, aq = self._readouts(config.joint())
        for got, ref in ((momenta, evolved[1::2]), (aq, np.array([a, evolved[2]]))):
            scale = np.abs(ref).max(axis=1, keepdims=True)
            assert np.all(np.abs(got - ref) <= 4 * np.spacing(scale))
            assert np.mean(got == ref) > 0.5  # most draws round alike

    def test_histogram_auto_box_is_bit_identical(self):
        config = self.CONFIG
        joint = config.evolved_joint()
        half_p = 5.0 * math.sqrt(joint.cov[1, 1])
        half_P = 5.0 * math.sqrt(joint.cov[3, 3])
        box = (
            (joint.mean[1] - half_p, joint.mean[1] + half_p),
            (joint.mean[3] - half_P, joint.mean[3] + half_P),
        )
        self._assert_histogram_matches(21, box)
        np.testing.assert_array_equal(
            joint_momentum_histogram(config, 21, chunk_size=self.CHUNK)[0],
            joint_momentum_histogram(config, 21, box, chunk_size=self.CHUNK)[0],
        )

    def test_histogram_clipping_range_is_bit_identical(self):
        # (120, 90) bins have 122 x 92 cells with the two outside rows and
        # columns, more than BLOCK: in one chunk of all 25 500 draws the flat
        # index buffer holds 11 224 entries and is counted four times
        assert 122 * 92 > montecarlo.BLOCK
        for bins, chunk in (((13, 17), self.CHUNK), ((120, 90), self.CONFIG.n_samples)):
            counts = self._assert_histogram_matches(bins, ((-0.3, 0.4), (-0.2, 0.25)), chunk)
            assert 0 < counts.sum() < self.CONFIG.n_samples / 2

    def test_correlation_matches_materialised_corrcoef(self):
        # np.corrcoef needs every row at once; the streamed merge of chunk
        # moments agrees with it to rounding (measured <= 5.3e-15)
        config = self.CONFIG
        for delta_Q in (3.0, 0.5, 0.02):
            joint = tensor(config.particle(), make_pure_device(delta_Q, config.mu_P, config.omega))
            pts, evolved = self._evolved_points(joint)
            a = config.theta_A.value(pts[0], pts[1])
            ref = np.corrcoef(a, evolved[2])[0, 1]
            (got,) = strong_measurement_correlation([delta_Q], config, chunk_size=self.CHUNK)
            assert abs(got - ref) <= 1e-14, delta_Q

    def test_experiment_pinned(self):
        # re-recorded when each chunk began returning the moments of its
        # accepted draws for `_merge`: every value within 3 ulp of the row path's
        config = dataclasses.replace(
            BASE, g=0.3, omega=0.5, mu_P=0.2, b=0.5, epsilon=0.25, n_samples=25_500, seed=7
        )
        assert run_weak_experiment(config, chunk_size=1000) == PostselectedEstimate(
            mean_Q=-0.131856306135355,
            mean_P=0.019161912996883076,
            mean_A=0.012075792367434128,
            se_Q=0.013786919322274393,
            se_P=0.007084849332174698,
            se_A=0.013264508384711785,
            n_accepted=5613,
            n_samples=25500,
            acceptance_rate=0.22011764705882353,
            epsilon=0.25,
        )
        assert run_weak_experiment(config) == PostselectedEstimate(
            mean_Q=-0.14040322315025053,
            mean_P=0.024824575573117295,
            mean_A=-0.0010937740338186597,
            se_Q=0.0141711396333962,
            se_P=0.007260467746273003,
            se_A=0.013491460866509571,
            n_accepted=5429,
            n_samples=25500,
            acceptance_rate=0.21290196078431373,
            epsilon=0.25,
        )


class TestBoundedMemory:
    """tracemalloc sees numpy buffers: 2e6 rows of (q, p, Q, P) are 64 MB,
    one chunk of 2**14 rows is 0.5 MB."""

    CONFIG = dataclasses.replace(BASE, g=0.5, n_samples=2_000_000)
    LIMIT = 16 * 2**20

    @pytest.fixture(autouse=True)
    def _one_worker(self, monkeypatch):
        # tracemalloc sees this process only: chunks must not go to workers
        monkeypatch.setattr(montecarlo, "WORKERS", 1)

    @staticmethod
    def _peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_histogram(self):
        self.CONFIG.evolved_joint()
        peak = self._peak(lambda: joint_momentum_histogram(self.CONFIG, 61, chunk_size=2**14))
        assert peak < self.LIMIT

    def test_strong_measurement_correlation(self):
        peak = self._peak(
            lambda: strong_measurement_correlation([0.5], self.CONFIG, chunk_size=2**14)
        )
        assert peak < self.LIMIT

    def test_run_weak_experiment_accepting_every_draw(self):
        # chunks of the default size, each returning the moments of its
        # accepted draws: 2e6 accepted (Q', P', A) rows would be 48 MB
        config = dataclasses.replace(self.CONFIG, epsilon=100.0)
        config.evolved_joint()
        peak = self._peak(lambda: run_weak_experiment(config))
        assert peak < self.LIMIT
