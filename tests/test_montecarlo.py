import atexit
import contextlib
import dataclasses
import itertools
import math
import os
import pickle
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from erlweak import (
    ExperimentConfig,
    InsufficientAcceptanceError,
    PostselectedEstimate,
    Quadrature,
    SymplecticMap,
    acceptance_probability,
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

import gate

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
        state = make_particle(0.0, 0.0, 1.0)
        gate.assert_z(gate.sample_z(sample_state(state, 1_000_000, seed=1), state))

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
    chunk's one Generator; they equal one draw of the whole chunk, and each
    block is an array of its own."""

    @pytest.mark.parametrize(
        "rows", [1000, montecarlo.BLOCK, 20_000, montecarlo.DEFAULT_CHUNK]
    )
    def test_blocks_equal_one_draw_per_chunk(self, rows):
        state = dataclasses.replace(BASE, omega=0.5, mu_P=0.3, mu_q=0.2, g=0.4).evolved_joint()
        lower = np.linalg.cholesky(state.cov)
        blocks = list(montecarlo._blocks(montecarlo._source(state, 11, np.eye(4)), 3, rows))
        assert max(b.shape[1] for b in blocks) <= montecarlo.BLOCK
        z = montecarlo._chunk_rng(11, 3).standard_normal((rows, 4))
        np.testing.assert_array_equal(np.concatenate(blocks, axis=1).T, state.mean + z @ lower.T)

    def test_identity_readout_factor_is_the_cholesky_factor(self):
        # sample_state draws the points through the identity read-out: the
        # QR of the upper triangular L^T reflects nothing, so F is L and the
        # offset the mean, bit for bit, on factory, joint and evolved states
        grid = itertools.product((0.3, 1.0, 7.0), (0.0, 0.4, -2.5), (0.0, 0.5), (0.0, 0.6, 2.0))
        for sigma, g, omega, theta_A in grid:
            config = dataclasses.replace(
                BASE, sigma=sigma, g=g, omega=omega, theta_A=Quadrature(theta_A), mu_P=0.3, mu_q=0.2
            )
            for state in (config.particle(), config.device(), config.joint(), config.evolved_joint()):
                offset, factor, *_ = montecarlo._source(state, 11, np.eye(state.mean.size))
                assert factor.tobytes() == np.linalg.cholesky(state.cov).tobytes()
                assert offset[:, 0].tobytes() == state.mean.tobytes()

    def test_normals_blocks_share_no_memory(self):
        # a block held past the next one keeps its values
        normals = montecarlo._normals(montecarlo._chunk_rng(5, 0), 3 * montecarlo.BLOCK, 2)
        first, second = next(normals), next(normals)
        assert not np.shares_memory(first, second)

    def test_multi_block_chunk_equals_its_one_draw_reference(self):
        # one chunk of several blocks: sample_state's points and the
        # correlation's merged moments equal those of one draw of the chunk
        config = dataclasses.replace(BASE, g=0.4, mu_P=0.3, theta_A=Quadrature(0.6), seed=9)
        joint = config.joint()
        rows = 3 * montecarlo.BLOCK + 123
        lower = np.linalg.cholesky(joint.cov)
        z = montecarlo._chunk_rng(config.seed, 0).standard_normal((rows, 4))
        pts = joint.mean + z @ lower.T
        np.testing.assert_array_equal(sample_state(joint, rows, config.seed, chunk_size=rows).T, pts)

        # the correlation draws (A, Q') from two normals per draw. Its merged
        # moments equal, bit for bit, those of the same blocks of its own
        # draws; the scatter also matches the whole sample's. Q''s sample mean
        # is 3.6e-6 here, 1/1900 of its standard error: numpy's mean of the
        # whole sample is 4.9e-18 from math.fsum's, the merge 2e-19, so no
        # relative bound of 1e-12 can hold against numpy's
        smap = coupling_map(config.g, config.theta_A)
        readout = np.array([[*config.theta_A.vector, 0.0, 0.0], smap.matrix[2]])
        source = montecarlo._source(joint, config.seed, readout)
        m, mean, scatter = montecarlo._correlation_chunk(source, 0, rows)
        offset, factor, *_ = source
        aq = offset.T + montecarlo._chunk_rng(config.seed, 0).standard_normal((rows, 2)) @ factor.T
        blocks = (aq[start : start + montecarlo.BLOCK].T.copy() for start in range(0, rows, montecarlo.BLOCK))
        ref_m, ref_mean, ref_scatter = montecarlo._merge(map(montecarlo._moments, blocks))
        centred = aq - aq.mean(axis=0)
        assert m == ref_m == rows
        np.testing.assert_array_equal(mean, ref_mean)
        np.testing.assert_array_equal(scatter, ref_scatter)
        np.testing.assert_allclose(scatter, centred.T @ centred, rtol=1e-12)

    @staticmethod
    def _chunk_and_reference(monkeypatch, epsilon):
        # the chunk draws each draw's read-out (q', p') = M[:2] mean + F z from
        # two normals z of the chunk's substream, and windows it. It keeps the
        # accepted z and, at each flush f of its one-block buffer (when the
        # next block's accepted draws would not fit, and at the end),
        # completes them with two normals z' per draw from substream
        # (seed, (k, f + 1)) to x = mean + L Q [z; z'], which it couples by M.
        # Its accepted rows, over several blocks, are bit for bit those of
        # this two-stage reference. The chunk hands them to `_moments` in
        # parts of at most one block, which the test records before it takes
        # their real moments
        config = dataclasses.replace(
            BASE, g=0.4, mu_P=0.3, omega=0.5, theta_A=Quadrature(0.6), b=0.3, epsilon=epsilon, seed=9
        )
        joint, smap = config.joint(), coupling_map(config.g, config.theta_A)
        source = montecarlo._source(joint, config.seed, smap.matrix[:2])
        offset, factor, _, (mean, completion) = source
        rows = 3 * montecarlo.BLOCK + 123
        z = montecarlo._chunk_rng(config.seed, 0).standard_normal((rows, 2))
        q, p = (offset.T + z @ factor.T).T
        keep = np.abs(config.theta_B.value(q, p) - config.b) <= config.epsilon
        flushes = [[]]  # the accepted draws of each flush, in order
        for start in range(0, rows, montecarlo.BLOCK):
            block = np.flatnonzero(keep[start : start + montecarlo.BLOCK]) + start
            if len(flushes[-1]) + block.size > montecarlo.BLOCK:
                flushes.append([])
            flushes[-1].extend(block)
        ref = []
        for f, drawn in enumerate(flushes):
            fresh = montecarlo._chunk_rng(config.seed, 0, f + 1).standard_normal((len(drawn), 2))
            evolved = (mean.T + np.column_stack([z[drawn], fresh]) @ completion.T) @ smap.matrix.T
            a_after = config.theta_A.value(evolved[:, 0], evolved[:, 1])
            ref.append(np.column_stack([evolved[:, 2], evolved[:, 3], a_after]))
        ref = np.concatenate(ref)
        window = (config.theta_B, config.b, config.epsilon)
        args = (source, smap, config.theta_A, (window,))
        parts, moments = [], montecarlo._moments

        def record(values):
            parts.append(values.T.copy())
            return moments(values)

        monkeypatch.setattr(montecarlo, "_moments", record)
        ((count, _, _),) = montecarlo._experiment_chunk(args, 0, rows)
        got = np.concatenate(parts)
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert count == ref.shape[0] and max(part.shape[0] for part in parts) <= montecarlo.BLOCK
        return len(parts), count, rows

    def test_accepted_rows_equal_the_two_step_reference(self, monkeypatch):
        # fewer accepted rows than a block: one `_moments` for the chunk
        parts, accepted, rows = self._chunk_and_reference(monkeypatch, 0.2)
        assert parts == 1 and 1000 < accepted < rows

    def test_accepted_buffer_flushes_each_full_block(self, monkeypatch):
        # a window that takes every draw fills its one-block buffer at every
        # block, so each block's rows become one part, and the rows must
        # come out the same
        parts, accepted, rows = self._chunk_and_reference(monkeypatch, 1e3)
        assert accepted == rows and parts == -(-rows // montecarlo.BLOCK) == 4

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
        assert windowed_oracle(config)[:2] == (0.0, 0.3)
        gate.assert_z(gate.z_scores(run_weak_experiment(config), config))

    def test_momentum_bias_matches_oracle(self):
        config = dataclasses.replace(BASE, n_samples=1_000_000)
        est = run_weak_experiment(config)
        assert est.mean_P < 0.0
        gate.assert_z(gate.z_scores(est, config))

    def test_commuting_postselection_no_momentum_bias(self):
        config = dataclasses.replace(
            BASE, theta_B=Quadrature(0.0), b=0.5, g=0.8, n_samples=400_000
        )
        assert windowed_oracle(config)[1] == 0.0
        gate.assert_z(gate.z_scores(run_weak_experiment(config), config))

    def test_acceptance_rate_matches_window_probability(self):
        config = dataclasses.replace(BASE, n_samples=400_000)
        gate.assert_z(gate.z_scores(run_weak_experiment(config), config)["n_accepted"])

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

    def test_coupling_that_moves_A_raises_where_the_window_accepts_one_draw_in_a_hundred(
        self, monkeypatch
    ):
        # only accepted draws are coupled and checked: the shear of the test
        # above must still raise where the window rejects about 99 % of them
        shear = np.eye(4)
        shear[0, 1] = 1e-9
        monkeypatch.setattr(
            montecarlo,
            "coupling_map",
            lambda g, theta_A: SymplecticMap(shear @ coupling_map(g, theta_A).matrix),
        )
        config = dataclasses.replace(BASE, b=0.9, n_samples=10_000)
        assert 0.005 < acceptance_probability(config) < 0.015
        with pytest.raises(AssertionError, match="^repeatability violated: A or P changed"):
            run_weak_experiment(config)

    def test_every_accepted_draw_is_coupled_into_its_window(self, monkeypatch):
        # the window selects on the read-out (q', p') = M[:2] mean + F z; each
        # accepted draw is completed to a point x and coupled to M x, once.
        # The B of M x differs from the read-out's only by rounding, far
        # below 64 ulp of the largest |coordinate| of x and M x (about 4 here)
        config = dataclasses.replace(
            BASE, mu_q=0.4, mu_P=0.7, omega=0.5, g=0.6, theta_A=Quadrature(0.9),
            theta_B=Quadrature(2.1), b=0.3, epsilon=0.05, n_samples=300_000,
        )
        monkeypatch.setattr(montecarlo, "WORKERS", 1)  # in this process, to record them
        coupled, apply = [], montecarlo.apply_to_points

        def recording(smap, pts):
            evolved = apply(smap, pts)
            coupled.append((pts, evolved))
            return evolved

        monkeypatch.setattr(montecarlo, "apply_to_points", recording)
        est = run_weak_experiment(config)
        points = np.concatenate([x for x, _ in coupled], axis=1)
        evolved = np.concatenate([y for _, y in coupled], axis=1)
        assert points.shape[1] == est.n_accepted > 5000
        rounding = 64 * np.spacing(max(np.abs(points).max(), np.abs(evolved).max()))
        distance = np.abs(config.theta_B.value(evolved[0], evolved[1]) - config.b)
        assert np.all(distance <= config.epsilon + rounding)

    def test_merge_takes_the_first_part_as_it_is(self):
        # mean P' near 1e160: merged into the empty start, the first part's
        # outer(mean, mean) overflowed at a weight of 0 and raised. Every
        # accepted P' rounds to 1e160 (its spread, 0.6, is far below its ulp,
        # 1.6e144), so the estimate can miss 1e160 only by the rounding of
        # the sum of the draws, 2 ulp here, which its SE (2 ulp / sqrt(n))
        # does not cover
        config = ExperimentConfig(
            0.0, 0.0, 1.0, 1.0, 1e160, 0.5, 0.3, Quadrature(0.0), Quadrature(0.0), 0.0, None, 100_000, 42
        )
        est = run_weak_experiment(config)
        assert est.n_accepted > 1000
        assert abs(est.mean_P - 1e160) <= 4 * math.ulp(1e160)
        assert all(map(math.isfinite, (est.mean_Q, est.mean_A, est.se_Q, est.se_P, est.se_A)))

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
        # consecutive configs that differ only in their windows share one
        # pass, however many they are; another draw field starts anew
        windows = [dataclasses.replace(BASE, b=0.1 * k, epsilon=0.1 + k) for k in range(9)]
        other = dataclasses.replace(BASE, g=0.2)
        passes = montecarlo._sampling_passes([*windows, other, windows[0]])
        assert passes == [windows, [other], [windows[0]]]

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


class TestCalibration:
    """The sampler's estimates are centred on the windowed oracle, their
    exact expectation, with standard errors of the right size: over many
    seeds, each z of `gate.z_scores` fits N(0, 1) in spread and in shape."""

    # sigma = 0.8, mu = (0.3, -0.4), mu_P = 0.2, omega = 0.5, g = 0.6,
    # theta_A = 0.3, theta_B = 1.2, b = 0.7, epsilon = 0.2: P(accept) = 7.4 %
    CONFIG = ExperimentConfig(
        0.3, -0.4, 0.8, 1.0, 0.2, 0.5, 0.6, Quadrature(0.3), Quadrature(1.2), 0.7, 0.2, 2**15, 0
    )
    SEEDS = range(300)
    # Over 300 seeds the mean of N(0, 1) z's has SE 0.058 and their sd 0.041:
    # both bounds sit more than 4 SE out
    MEAN_BOUND = 0.25
    SD_BOUNDS = (0.8, 1.2)
    # A^2 of n draws from a fully specified law exceeds this with
    # probability 1 % (Anderson & Darling, JASA 49, 765 (1954))
    AD_BOUND = 3.857
    # negative controls: every SE scaled, or the oracle of a wider window
    MUTANTS = {"se_x2": (2.0, 1.0), "se_x0.5": (0.5, 1.0), "epsilon_x1.5": (1.0, 1.5)}

    @pytest.fixture(scope="class")
    def runs(self):
        """The estimates at every seed, drawn once for the class's tests."""
        return [run_weak_experiment(dataclasses.replace(self.CONFIG, seed=seed)) for seed in self.SEEDS]

    def _z(self, runs, se_factor=1.0, epsilon_factor=1.0):
        """Each z of `gate.z_scores` over the runs, as {name: (seeds,) array},
        with every SE times se_factor and against the oracle of the window
        epsilon_factor times as wide: 1 and 1 for the sampler itself."""
        config = dataclasses.replace(self.CONFIG, epsilon=epsilon_factor * self.CONFIG.epsilon)
        scaled = (
            dataclasses.replace(est, se_Q=se_factor * est.se_Q, se_P=se_factor * est.se_P, se_A=se_factor * est.se_A)
            for est in runs
        )
        z = [gate.z_scores(est, config) for est in scaled]
        return {name: np.array([each[name] for each in z]) for name in z[0]}

    def _spread_fits(self, z):
        return abs(z.mean()) <= self.MEAN_BOUND and self.SD_BOUNDS[0] <= z.std(ddof=1) <= self.SD_BOUNDS[1]

    def _anderson_darling(self, z):
        """A^2 of the z's against N(0, 1): inf where a tail probability
        underflows."""
        z, n = np.sort(z), z.size
        with np.errstate(divide="ignore"):
            log_cdf = np.log([0.5 * math.erfc(-x / math.sqrt(2.0)) for x in z])
            log_sf = np.log([0.5 * math.erfc(x / math.sqrt(2.0)) for x in z])
        return -n - np.mean((2 * np.arange(1, n + 1) - 1) * (log_cdf + log_sf[::-1]))

    def test_z_scores_are_standard_normal(self, runs):
        assert 0.07 < acceptance_probability(self.CONFIG) < 0.08
        for name, z in self._z(runs).items():
            assert self._spread_fits(z), (name, z.mean(), z.std(ddof=1))

    def test_z_scores_have_the_normal_shape(self, runs):
        for name, z in self._z(runs).items():
            assert self._anderson_darling(z) <= self.AD_BOUND, (name, self._anderson_darling(z))

    @pytest.mark.parametrize("mutant", MUTANTS)
    def test_mutants_fail_in_spread_and_in_shape(self, runs, mutant):
        z = self._z(runs, *self.MUTANTS[mutant]).values()
        assert not all(map(self._spread_fits, z))
        assert max(map(self._anderson_darling, z)) > self.AD_BOUND

    # The property's family: 3 window means in each of the ci profile's
    # 1000 examples, at a family-wise level of 1 %, fixed before any run
    Z_BOUND = statistics.NormalDist().inv_cdf(1.0 - 0.01 / (2 * 3 * 1000))
    spread = st.floats(-1.0, 1.0).map(lambda x: 10.0**x)

    @settings(derandomize=True, deadline=None)
    @given(
        config=st.builds(
            ExperimentConfig,
            mu_q=st.floats(-10.0, 10.0),
            mu_p=st.floats(-10.0, 10.0),
            sigma=spread,
            delta_Q=spread,
            mu_P=st.floats(0.01, 10.0) | st.floats(-10.0, -0.01),
            omega=st.floats(-3.0, 3.0),
            g=st.floats(-3.0, 3.0),
            theta_A=st.floats(0.0, 2.0 * math.pi).map(Quadrature),
            theta_B=st.floats(0.0, 2.0 * math.pi).map(Quadrature),
            b=st.just(0.0),
            epsilon=st.none(),
            n_samples=st.just(2**14),
            seed=st.integers(0, 2**64 - 1),
        ),
        z_b=st.floats(-3.0, 3.0),
        width=st.none() | st.floats(0.02, 1.0),
    )
    def test_property_window_means_fit_the_windowed_oracle(self, config, z_b, width):
        # b within 3 std of B, and an adaptive window or one of `width` std of
        # B. Windows expected to accept fewer than 200 draws are skipped:
        # below that the z's are not yet normal enough for the bound's tails
        sd = math.sqrt(config._evolved.var_B)
        config = dataclasses.replace(
            config, b=config._evolved.mu_B + z_b * sd, epsilon=None if width is None else width * sd
        )
        assume(config.n_samples * acceptance_probability(config) >= 200)
        z = gate.z_scores(run_weak_experiment(config), config)
        gate.assert_z([z[name] for name in gate.MEANS], self.Z_BOUND)


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

    def test_mean_of_B_that_overflows(self):
        # every moment of the coupled state is finite, but the mean of
        # B = (q' + p') / sqrt(2) sums two means of 1.5e308 and overflows
        config = dataclasses.replace(BASE, mu_q=1.5e308, mu_p=1.5e308, theta_B=Quadrature(math.pi / 4))
        smap = coupling_map(config.g, config.theta_A)
        mean = smap.matrix @ config.joint().mean
        cov = smap.matrix @ config.joint().cov @ smap.matrix.T
        assert np.isfinite(mean).all() and np.isfinite(cov).all()
        with pytest.raises(OverflowError, match="^the coupled state overflows or underflows: "):
            config.evolved_joint()


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

    @staticmethod
    def _slice_means_z(config, bins, min_count):
        """The z of each p' slice's mean P' bin centre, over the slices of
        more than min_count draws, against its exact expectation under the
        cell probabilities of (p', P')."""
        counts, p_edges, P_edges = joint_momentum_histogram(config, bins=bins)
        evolved = config.evolved_joint()
        probs = _cell_probabilities(evolved.mean[[1, 3]], evolved.cov[np.ix_([1, 3], [1, 3])], p_edges, P_edges)
        centres = 0.5 * (P_edges[:-1] + P_edges[1:])
        return [gate.binned_mean_z(row, centres, prob) for row, prob in zip(counts, probs) if row.sum() > min_count]

    def test_zero_coupling_product_structure(self):
        # g = 0: P' = P whatever p', so every slice's mean P' is P's
        config = dataclasses.replace(BASE, g=0.0, n_samples=400_000)
        assert config.evolved_joint().cov[3, 1] == 0.0
        gate.assert_z(self._slice_means_z(config, 15, 2_000))

    def test_conditional_device_momentum_slope(self):
        # theta_A=0: p' = p - g P, so E[P | p'=b] decreases linearly in b,
        # with the evolved covariance's regression coefficient
        config = dataclasses.replace(BASE, g=0.5, n_samples=400_000)
        cov = config.evolved_joint().cov
        assert cov[3, 1] / cov[1, 1] < 0.0
        gate.assert_z(self._slice_means_z(config, 31, 3_000))

    def test_bad_bins_rejected(self):
        with pytest.raises(ValueError):
            joint_momentum_histogram(BASE, bins=1)
        for bins in (5.0, (5, 5.0), "ab", None):
            with pytest.raises(TypeError, match="bins"):
                joint_momentum_histogram(BASE, bins=bins)

    def test_numpy_integer_bins_accepted(self):
        config = dataclasses.replace(BASE, n_samples=20_000)
        counts, p_edges, P_edges = joint_momentum_histogram(config, bins=5)
        for bins in (np.int64(5), (np.int64(5), np.int32(5)), np.array([5, 5])):
            got = joint_momentum_histogram(config, bins=bins)
            assert all(np.array_equal(a, b) for a, b in zip(got, (counts, p_edges, P_edges)))

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


def _cell_probabilities(mean, cov, x_edges, y_edges, nodes=32):
    """P(x_i < X < x_(i+1), y_j < Y < y_(j+1)) of each cell of a bivariate
    normal N(mean, cov), as an (nx, ny) array: over each x bin, Gauss-Legendre
    quadrature of the density of X times the conditional normal CDF of Y
    given X, through math.erf (after Genz 2004)."""
    sx = math.sqrt(cov[0, 0])
    slope = cov[0, 1] / cov[0, 0]
    s_cond = math.sqrt(cov[1, 1] - cov[0, 1] * slope)
    t, w = np.polynomial.legendre.leggauss(nodes)
    probs = np.empty((len(x_edges) - 1, len(y_edges) - 1))
    for i, (a, b) in enumerate(zip(x_edges[:-1], x_edges[1:])):
        x = 0.5 * (b - a) * t + 0.5 * (a + b)
        weight = 0.5 * (b - a) * w * np.exp(-0.5 * ((x - mean[0]) / sx) ** 2) / (sx * math.sqrt(2 * math.pi))
        centre = mean[1] + slope * (x - mean[0])
        cdf = [[0.5 * math.erfc((c - y) / (s_cond * math.sqrt(2.0))) for c in centre] for y in y_edges]
        probs[i] = np.diff(np.array(cdf) @ weight)
    return probs


def _g_test_p_value(observed, expected):
    """p-value of the G-test of observed counts against expected ones, the
    smallest expected cells merged into one until it, and every other cell,
    expects at least 5 draws."""
    mpmath = pytest.importorskip("mpmath")
    order = np.argsort(expected)
    observed, expected = observed[order], expected[order]
    merged = int(np.searchsorted(expected, 5.0))  # the cells below 5, then up to 5 in all
    if merged:
        merged = max(merged, int(np.searchsorted(np.cumsum(expected), 5.0)) + 1)
        observed = np.append(observed[merged:], observed[:merged].sum())
        expected = np.append(expected[merged:], expected[:merged].sum())
    assert expected.size >= 2 and expected.min() >= 5.0
    seen = observed > 0
    g = 2.0 * float(observed[seen] @ np.log(observed[seen] / expected[seen]))
    return float(mpmath.gammainc((expected.size - 1) / 2.0, max(g, 0.0) / 2.0, mpmath.inf, regularized=True))


def _assert_histogram_fits(config, bins, reach):
    """A G-test, at a per-example level fixed before any run, of the
    histogram's counts on the box of +-reach std of each marginal, and of
    the draws outside it, against the exact law of (p', P'): N(R mu, R C R^T)
    with R mu and R C R^T read from the evolved state's rows (1, 3), not
    from the sampler's factor."""
    joint = config.evolved_joint()
    mean, cov = joint.mean[[1, 3]], joint.cov[np.ix_([1, 3], [1, 3])]
    half = reach * np.sqrt(np.diag(cov))
    counts, p_edges, P_edges = joint_momentum_histogram(config, bins, tuple(zip(mean - half, mean + half)))
    probs = _cell_probabilities(mean, cov, p_edges, P_edges).ravel()
    observed = np.append(counts.ravel(), config.n_samples - counts.sum())
    expected = config.n_samples * np.append(probs, max(0.0, 1.0 - probs.sum()))
    p_value = _g_test_p_value(observed, expected)
    assert p_value > 1e-6, (p_value, config, bins, reach)


class TestHistogramFit:
    """The histogram's counts follow the exact law of (p', P') whatever the
    random stream draws: a goodness-of-fit gate on the cell probabilities,
    over configs with moderate spreads, mu_P != 0 and both angles free."""

    FIT = dict(
        config=st.builds(
            dataclasses.replace,
            st.just(dataclasses.replace(BASE, n_samples=20_000)),
            mu_q=st.floats(-2.0, 2.0),
            mu_p=st.floats(-2.0, 2.0),
            sigma=st.floats(0.5, 2.0),
            delta_Q=st.floats(0.5, 2.0),
            mu_P=st.floats(0.1, 2.0) | st.floats(-2.0, -0.1),
            omega=st.floats(-1.0, 1.0),
            g=st.floats(0.0, 1.5),
            theta_A=st.floats(0.0, math.pi).map(Quadrature),
            theta_B=st.floats(0.0, math.pi).map(Quadrature),
            seed=st.integers(0, 2**32 - 1),
        ),
        bins=st.tuples(st.integers(2, 12), st.integers(2, 12)),
        reach=st.floats(1.0, 4.0),
    )

    @settings(derandomize=True, deadline=None)
    @given(**FIT)
    def test_property_counts_fit_the_exact_cell_probabilities(self, config, bins, reach):
        _assert_histogram_fits(config, bins, reach)

    def test_flipped_correlation_fails(self, monkeypatch):
        # negative control: flipping the sign of the read-out factor's
        # off-diagonal entry keeps both marginals and negates the correlation.
        # The same property over the same draws, stopped at its first
        # failure: shrinking it would take hundreds of histograms
        source = montecarlo._source

        def flipped(state, seed, readout):
            offset, factor, seed, completion = source(state, seed, readout)
            return offset, factor * np.array([[1.0, 1.0], [-1.0, 1.0]]), seed, completion

        monkeypatch.setattr(montecarlo, "_source", flipped)
        fit = settings(derandomize=True, deadline=None, phases=[Phase.generate])(
            given(**self.FIT)(_assert_histogram_fits)
        )
        with pytest.raises(AssertionError):
            fit()

    def test_cell_probabilities_match_30_digits(self):
        # at a correlation of -0.98: a few cells against mpmath's quadrature
        # of the same conditional at 30 digits, every cell against the
        # quadrature over the other axis, and the cells of a +-12 std box sum to 1
        mp = pytest.importorskip("mpmath").mp
        mean, cov = np.array([0.3, 1.0]), np.array([[1.3, -1.0], [-1.0, 0.8]])
        spread = np.sqrt(np.diag(cov))
        edges = [m + s * np.linspace(-4.0, 4.0, 5) for m, s in zip(mean, spread)]
        probs = _cell_probabilities(mean, cov, *edges)
        with mp.workdps(30):
            slope = mp.mpf(cov[0, 1]) / cov[0, 0]
            s_cond = mp.sqrt(cov[1, 1] - cov[0, 1] * slope)
            for i, j in ((1, 2), (2, 1), (1, 1), (0, 3)):
                lo, hi = (edges[1][j : j + 2] - mean[1]) / s_cond

                def strip(x):
                    shift = slope * (x - mean[0]) / s_cond
                    return mp.npdf(x, mean[0], spread[0]) * (mp.ncdf(hi - shift) - mp.ncdf(lo - shift))

                assert abs(probs[i, j] - float(mp.quad(strip, edges[0][i : i + 2].tolist()))) <= 1e-14, (i, j)
        swapped = _cell_probabilities(mean[::-1], cov[::-1, ::-1], *edges[::-1]).T
        np.testing.assert_allclose(probs, swapped, rtol=1e-12, atol=1e-15)
        edges = [m + s * np.linspace(-12.0, 12.0, 13) for m, s in zip(mean, spread)]
        assert _cell_probabilities(mean, cov, *edges).sum() == pytest.approx(1.0, abs=1e-14)


class TestBinIndex:
    """`_bins` gives the bin index np.histogram2d takes from a binary
    search: searchsorted(edges, x, "right"), one less on the last edge."""

    @staticmethod
    def _assert_matches_searchsorted(edges, x):
        expected = np.searchsorted(edges, x, "right") - (x == edges[-1])
        got = montecarlo._bins(x[None], (edges,), montecarlo._bin_margin((edges,)))[0]
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
        for r, delta_Q in zip(corr, seq):
            gate.assert_z(gate.fisher_z(r, exact_strong_correlation(delta_Q, config), config.n_samples))

    def test_singular_readout_covariance_draws(self):
        # at g = sigma = 1 and delta_Q <= 1e-9, R C R^T of (A, Q') is
        # [[1, 1], [1, 1]] in double precision: singular, so a Cholesky of it
        # would raise "Matrix is not positive definite". The QR factor of
        # (R L)^T draws Q' = A, as the four-normal factor R L did (to 2e-16)
        config = dataclasses.replace(BASE, g=1.0, sigma=1.0, n_samples=20_000)
        assert strong_measurement_correlation([1e-9, 1e-12], config) == pytest.approx([1.0, 1.0], abs=1e-15)

    def test_state_that_underflows_is_named(self):
        # delta_Q^2 underflows to 0 in the device state: the sampler reads the
        # one checked coupled state, so the error names it
        with pytest.raises(OverflowError, match="^the coupled state overflows or underflows: "):
            strong_measurement_correlation([1e-200], BASE)

    @pytest.mark.parametrize("sigma, delta_Q", [(1e100, 1.0), (1e-100, 1e-100)])
    def test_normaliser_stays_in_float_range(self, sigma, delta_Q):
        # each scatter of (A, Q') is about n sigma^2, 1e205 or 1e-195 here:
        # their product overflows or underflows, though each root does not
        config = dataclasses.replace(BASE, g=1.0, sigma=sigma, n_samples=100_000)
        (corr,) = strong_measurement_correlation([delta_Q], config)
        rho = exact_strong_correlation(delta_Q, config)
        assert rho == pytest.approx(1.0 if sigma > 1 else math.sqrt(0.5), rel=1e-15)
        if rho == 1.0:  # atanh(1) is infinite: a correlation of 1 is checked as one
            assert corr == rho
        else:
            gate.assert_z(gate.fisher_z(corr, rho, config.n_samples))

    @pytest.mark.parametrize("g, delta_Q", [(1e160, 1.0), (-1e160, 1.0), (1e-170, 1e-170), (0.3, 1.0)])
    def test_exact_correlation_takes_no_power_of_g_or_delta_Q(self, g, delta_Q):
        # g^2 overflows at 1e160 and delta_Q^2 underflows at 1e-170
        mp = pytest.importorskip("mpmath").mp
        config = dataclasses.replace(BASE, g=g, theta_A=Quadrature(0.4), sigma=0.8)
        with mp.workdps(50):
            sigma, theta = mp.mpf(config.sigma), mp.mpf(config.theta_A.theta)
            var_A = (mp.cos(theta) * sigma) ** 2 + (mp.sin(theta) / (2 * sigma)) ** 2
            k = mp.mpf(g) * mp.sqrt(var_A)
            exact = float(k / mp.sqrt(mp.mpf(delta_Q) ** 2 + k**2))
        assert exact_strong_correlation(delta_Q, config) == pytest.approx(exact, rel=4e-16)

    def test_zero_coupling_uncorrelated(self):
        config = dataclasses.replace(BASE, g=0.0, n_samples=100_000)
        (corr,) = strong_measurement_correlation([1.0], config)
        gate.assert_z(gate.fisher_z(corr, 0.0, config.n_samples))


class TestStreamingEngine:
    """The histogram and the correlation reduce chunk by chunk; their results
    must match the same reductions over the materialised sample."""

    CONFIG = dataclasses.replace(
        BASE, g=0.4, omega=0.5, mu_P=0.3, mu_q=0.2, theta_A=Quadrature(0.6), n_samples=25_500, seed=5
    )
    CHUNK = 1000  # n_samples is not a multiple of it

    def _readout_matrices(self):
        """R of the histogram, (p', P'), and of the correlation, (A, Q')."""
        config = self.CONFIG
        smap = coupling_map(config.g, config.theta_A)
        return smap.matrix[1::2], np.array([[*config.theta_A.vector, 0.0, 0.0], smap.matrix[2]])

    def _readouts(self, joint, chunk=CHUNK):
        """The read-outs of every draw: (p', P') and (A, Q'), as the
        histogram and the correlation draw them, as (2, n) arrays."""
        config = self.CONFIG
        out = []
        for readout in self._readout_matrices():
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

    def test_readout_factor_is_the_square_root_of_the_readout_covariance(self):
        # F is 2 x 2 and lower triangular, and F F^T is R C R^T within 4 ulp
        # of its largest entry (measured 1 and 0.75): for (p', P') as the
        # evolved state's rows (1, 3), for (A, Q') as R C R^T of the joint state
        joint = self.CONFIG.joint()
        momenta, aq = self._readout_matrices()
        for readout, ref in (
            (momenta, self.CONFIG.evolved_joint().cov[np.ix_([1, 3], [1, 3])]),
            (aq, aq @ joint.cov @ aq.T),
        ):
            offset, factor, *_ = montecarlo._source(joint, self.CONFIG.seed, readout)
            assert factor.shape == (2, 2) and factor[0, 1] == 0.0
            np.testing.assert_array_equal(offset[:, 0], readout @ joint.mean)
            assert np.all(np.abs(factor @ factor.T - ref) <= 4 * np.spacing(np.abs(ref).max()))

    def test_readout_factor_has_the_bits_of_the_reduced_qr(self):
        # `_source` takes a complete QR for the completion L Q; its F is bit for
        # bit the reduced QR's, so the histogram and the correlation keep their
        # draws. R L Q = [F 0] and (L Q)(L Q)^T = C within 8 ulp of the
        # largest entry (measured at most 2.5)
        joint = self.CONFIG.joint()
        lower = np.linalg.cholesky(joint.cov)
        smap = coupling_map(self.CONFIG.g, self.CONFIG.theta_A)
        for readout in (*self._readout_matrices(), smap.matrix[:2]):
            _, factor, _, (mean, completion) = montecarlo._source(joint, self.CONFIG.seed, readout)
            np.testing.assert_array_equal(factor, np.linalg.qr((readout @ lower).T, mode="r").T)
            np.testing.assert_array_equal(mean[:, 0], joint.mean)
            for got, ref in (
                (readout @ completion, np.hstack([factor, np.zeros((2, 2))])),
                (completion @ completion.T, joint.cov),
            ):
                scale = max(np.abs(ref).max(), np.abs(readout).max() * np.abs(completion).max())
                assert np.all(np.abs(got - ref) <= 8 * np.spacing(scale))

    def test_readout_blocks_are_offset_plus_factor_z(self):
        # the yielded read-outs of a chunk of several blocks are, bit for bit,
        # offset + F z for two standard normals per draw of the chunk's substream
        config = self.CONFIG
        rows = 3 * montecarlo.BLOCK + 123
        for readout in self._readout_matrices():
            source = montecarlo._source(config.joint(), config.seed, readout)
            blocks = np.concatenate([b.copy() for b in montecarlo._blocks(source, 4, rows)], axis=1)
            offset, factor, *_ = source
            z = montecarlo._chunk_rng(config.seed, 4).standard_normal((rows, 2))
            np.testing.assert_array_equal(blocks.T, offset.T + z @ factor.T)

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
        # columns, more than BLOCK: one chunk of all 25 500 draws counts
        # each of its four blocks into more cells than the block has draws
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
            _, aq = self._readouts(joint)
            ref = np.corrcoef(aq)[0, 1]
            (got,) = strong_measurement_correlation([delta_Q], config, chunk_size=self.CHUNK)
            assert abs(got - ref) <= 1e-14, delta_Q

    def test_experiment_pinned(self):
        # re-recorded at version 0.4.0, when each draw's (q', p') began to be
        # drawn first and only the accepted draws completed to points
        config = dataclasses.replace(
            BASE, g=0.3, omega=0.5, mu_P=0.2, b=0.5, epsilon=0.25, n_samples=25_500, seed=7
        )
        assert run_weak_experiment(config, chunk_size=1000) == PostselectedEstimate(
            mean_Q=-0.12449432346373268,
            mean_P=0.03610661025049314,
            mean_A=-0.021778364344345696,
            se_Q=0.013642367767306677,
            se_P=0.006976476610816478,
            se_A=0.01329377141393326,
            n_accepted=5553,
            n_samples=25500,
            acceptance_rate=0.21776470588235294,
            epsilon=0.25,
        )
        assert run_weak_experiment(config) == PostselectedEstimate(
            mean_Q=-0.1586397198227319,
            mean_P=0.014315544839775629,
            mean_A=-0.0003995653946493269,
            se_Q=0.013897712402230374,
            se_P=0.007099214331321992,
            se_A=0.013331008855850866,
            n_accepted=5548,
            n_samples=25500,
            acceptance_rate=0.21756862745098038,
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

    def test_strong_measurement_correlation_reduces_each_block(self):
        # chunks of the default size, each merging its blocks' moments as they
        # are drawn: one chunk of (A, Q') would be 4 MB
        peak = self._peak(lambda: strong_measurement_correlation([0.5], self.CONFIG))
        assert peak < 2 * 2**20

    def test_run_weak_experiment_holds_one_block_per_window(self):
        # every draw accepted, in chunks of the default size: each window's
        # accepted draws stay in one block of their two normals, 128 KB,
        # where a chunk's (Q', P', A) would be 6.3 MB
        config = dataclasses.replace(self.CONFIG, epsilon=100.0)
        config.evolved_joint()
        montecarlo._chunk_rng(0, 0)  # numpy imports its random module, 0.7 MB, on first use
        assert self._peak(lambda: run_weak_experiment(config)) < 2 * 2**20

    def test_one_sampling_pass_of_eight_windows(self):
        # eight b windows on one draw set, each accepting every draw: one
        # pass, which holds one block per window
        configs = [dataclasses.replace(self.CONFIG, b=0.1 * k, epsilon=100.0) for k in range(8)]
        for config in configs:
            config.evolved_joint()

        def sample():
            for group in montecarlo._sampling_passes(configs):
                montecarlo._postselect(group)

        assert self._peak(sample) < 6 * 2**20

    def test_run_weak_experiment_accepting_every_draw(self):
        # chunks of the default size, each returning the moments of its
        # accepted draws: 2e6 accepted (Q', P', A) rows would be 48 MB
        config = dataclasses.replace(self.CONFIG, epsilon=100.0)
        config.evolved_joint()
        peak = self._peak(lambda: run_weak_experiment(config))
        assert peak < self.LIMIT
