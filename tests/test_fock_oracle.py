"""Tests for the truncated number-basis oracle.

Where possible the expected values come from a third derivation (direct
Hermite polynomials, closed-form overlaps, by-hand small matrices) so the
oracle itself is pinned down independently of the algebra it validates.
"""

import inspect
import math
import time

import numpy as np
import pytest

from catforge import cv_core, fock_oracle
from catforge.config import DEFAULT_FOCK_CAP
from catforge.cv_core import HomodyneWindow
from catforge.errors import (CatforgeError, DimensionMismatch,
                             TruncationTooLarge, ZeroProbability)
from catforge.fock_oracle import (apply_beam_splitter, choose_truncation,
                                  coherent_fock, fidelity, product_state,
                                  project_quadrature, quadrature_eigvec,
                                  superposition_fock, window_metrics)
from catforge.quadrature import gauss_legendre

SQRT2 = math.sqrt(2.0)


def exact_bs_blocks(dim):
    """Beam-splitter blocks from the binomial expansion in exact integers.

    The reference for fock_oracle._bs_blocks.  The creation operators map
    a^dag -> (c^dag + d^dag)/sqrt2 and b^dag -> (c^dag - d^dag)/sqrt2, so
    within the total-photon-S block

        <p, S-p| U |m, S-m> = 2^(-S/2) K sqrt(p!(S-p)!/(m!(S-m)!)),
        K = sum_j C(m, j) C(S-m, p-j) (-1)^((S-m)-(p-j)),

    with K accumulated in exact integer arithmetic (the alternating binomial
    sum cancels catastrophically in floats).  Blocks with S >= dim are the
    truncated square submatrix with both occupations below dim.  Cost grows
    about as dim^4, so it serves dims up to about 81.
    """
    smax = 2 * dim - 2
    rows = [[math.comb(n, j) for j in range(n + 1)] for n in range(smax + 1)]
    fact = [math.factorial(n) for n in range(smax + 1)]
    blocks = []
    for s in range(smax + 1):
        lo = max(0, s - dim + 1)
        occ = range(lo, min(s, dim - 1) + 1)
        mat = np.empty((len(occ), len(occ)))
        for a, m in enumerate(occ):
            rm, rn = rows[m], rows[s - m]
            # the block is symmetric (the one-photon matrix is), fill p >= m
            for b, p in enumerate(occ[a:], start=a):
                acc = 0
                for j in range(max(0, p - s + m), min(m, p) + 1):
                    t = rm[j] * rn[p - j]
                    acc += -t if (s - m - p + j) & 1 else t
                val = (acc * math.sqrt((fact[p] * fact[s - p])
                                       / (fact[m] * fact[s - m]))
                       * 0.5 ** (0.5 * s)) if acc else 0.0
                mat[b, a] = mat[a, b] = val
        blocks.append((lo, mat))
    return blocks


def random_block_state(dim, seed):
    """Random two-mode state supported on complete total-photon blocks."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    n1, n2 = np.indices((dim, dim))
    v[n1 + n2 >= dim] = 0.0
    return v / np.linalg.norm(v)


class TestChooseTruncation:
    def test_floor(self):
        assert choose_truncation(0.0) == 20

    def test_formula(self):
        assert choose_truncation(2.0) == 44

    def test_cap(self):
        with pytest.raises(TruncationTooLarge):
            choose_truncation(100.0)

    def test_cap_override(self):
        with pytest.raises(TruncationTooLarge):
            choose_truncation(2.0, cap=40)
        assert choose_truncation(2.0, cap=44) == 44

    def test_env_cap(self, monkeypatch):
        monkeypatch.setenv("CATFORGE_MAX_FOCK", "40")
        with pytest.raises(TruncationTooLarge):
            choose_truncation(2.0)
        monkeypatch.delenv("CATFORGE_MAX_FOCK")
        assert choose_truncation(2.0) == 44

    @pytest.mark.parametrize("env, cap, source", [
        ("abc", None, "CATFORGE_MAX_FOCK"), ("0", None, "CATFORGE_MAX_FOCK"),
        ("-5", None, "CATFORGE_MAX_FOCK"), ("4.5", None, "CATFORGE_MAX_FOCK"),
        (None, 0, "Fock cap"), (None, -3, "Fock cap")])
    def test_malformed_cap_names_its_source(self, monkeypatch, env, cap, source):
        if env is not None:
            monkeypatch.setenv("CATFORGE_MAX_FOCK", env)
        with pytest.raises(CatforgeError) as info:
            choose_truncation(2.0, cap=cap)
        msg = str(info.value)
        assert source in msg and "positive integer" in msg
        assert repr(env if cap is None else cap) in msg

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            choose_truncation(-1.0)

    def test_tail_bound_property(self):
        # the guaranteed tail <= 1e-12 at the chosen dimension
        rng = np.random.default_rng(21)
        for _ in range(20):
            mag = rng.uniform(0.0, 6.0)
            alpha = mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
            v = coherent_fock(alpha, choose_truncation(mag))
            assert 1.0 - np.vdot(v, v).real <= 1e-12


class TestCoherentFock:
    def test_vacuum(self):
        v = coherent_fock(0.0, 8)
        assert v[0] == 1.0
        assert np.all(v[1:] == 0.0)

    def test_norm_at_forty(self):
        v = coherent_fock(1.0, 40)
        assert abs(np.vdot(v, v).real - 1.0) < 1e-12

    def test_matches_closed_form_overlap(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            a, b = (complex(*v) for v in rng.uniform(-SQRT2, SQRT2, (2, 2)))
            got = np.vdot(coherent_fock(a, 60), coherent_fock(b, 60))
            assert abs(got - cv_core.coherent_overlap(a, b)) < 1e-10

    def test_superposition_carrier(self):
        s = cv_core.even_cat(1.0)
        v = superposition_fock(s, 40)
        direct = sum(complex(w) * coherent_fock(a, 40) for w, a in s.terms)
        assert np.allclose(v, direct, atol=1e-15)
        assert abs(np.vdot(v, v).real - 1.0) < 1e-12


def hermite_direct(n, x):
    """h_n(x) from the physicists' polynomial, no recurrence on functions."""
    coefs = np.zeros(n + 1)
    coefs[n] = 1.0
    hn = np.polynomial.hermite.hermval(x, coefs)
    norm = math.sqrt(float(2 ** n) * math.factorial(n) * math.sqrt(math.pi))
    return hn * math.exp(-0.5 * x * x) / norm


class TestQuadratureEigvec:
    def test_odd_entries_vanish_at_origin(self):
        v = quadrature_eigvec(0.0, 31)
        assert np.all(v[1::2] == 0.0)

    def test_vacuum_value(self):
        v = quadrature_eigvec(0.0, 20)
        got = float(v @ coherent_fock(0.0, 20).real)
        assert abs(got - math.pi ** -0.25) < 1e-12

    def test_recurrence_matches_direct_polynomial(self):
        for x in (-5.0, -1.3, 0.0, 0.4, 2.2, 5.0):
            v = quadrature_eigvec(x, 31)
            for n in range(31):
                assert abs(v[n] - hermite_direct(n, x)) < 1e-10

    def test_node_array_matches_single_nodes(self):
        xs = np.array([-4.5, -0.3, 0.0, 1.1, 3.7])
        table = quadrature_eigvec(xs, 40)
        assert table.shape == (5, 40)
        for x, row in zip(xs, table):
            assert np.max(np.abs(row - quadrature_eigvec(x, 40))) <= 1e-15
            assert np.max(np.abs(row - [hermite_direct(n, x)
                                        for n in range(40)])) < 1e-10

    def test_reproduces_quadrature_overlap(self):
        got = np.dot(quadrature_eigvec(0.7, 60), coherent_fock(1 + 0.5j, 60))
        want = cv_core.quadrature_overlap(0.7, 1 + 0.5j)
        assert abs(got - want) < 1e-10


class TestBeamSplitter:
    def test_vacuum_fixed_point(self):
        amps = np.zeros((6, 6), dtype=complex)
        amps[0, 0] = 1.0
        out = apply_beam_splitter(amps)
        assert out[0, 0] == 1.0
        assert np.count_nonzero(out) == 1

    def test_one_photon_block_by_hand(self):
        # |1,0> -> (|1,0> + |0,1>)/sqrt2 and |0,1> -> (|1,0> - |0,1>)/sqrt2
        amps = np.zeros((4, 4), dtype=complex)
        amps[1, 0] = 1.0
        out = apply_beam_splitter(amps)
        assert abs(out[1, 0] - 1 / SQRT2) < 1e-15
        assert abs(out[0, 1] - 1 / SQRT2) < 1e-15
        amps = np.zeros((4, 4), dtype=complex)
        amps[0, 1] = 1.0
        out = apply_beam_splitter(amps)
        assert abs(out[1, 0] - 1 / SQRT2) < 1e-15
        assert abs(out[0, 1] + 1 / SQRT2) < 1e-15

    def test_coherent_mapping(self):
        rng = np.random.default_rng(7)
        dim = 60
        for _ in range(10):
            a, b = (complex(*v) for v in rng.uniform(-SQRT2, SQRT2, (2, 2)))
            out = apply_beam_splitter(
                product_state(coherent_fock(a, dim), coherent_fock(b, dim)))
            want = product_state(coherent_fock((a + b) / SQRT2, dim),
                                 coherent_fock((a - b) / SQRT2, dim))
            assert np.linalg.norm(out - want) < 1e-8

    def test_merging_equal_inputs(self):
        dim = 60
        a = 1.2 - 0.4j
        out = apply_beam_splitter(
            product_state(coherent_fock(a, dim), coherent_fock(a, dim)))
        want = product_state(coherent_fock(SQRT2 * a, dim),
                             coherent_fock(0.0, dim))
        assert np.linalg.norm(out - want) < 1e-8

    def test_unitary_on_complete_blocks(self):
        v = random_block_state(40, seed=7)
        w = apply_beam_splitter(v)
        assert abs(np.linalg.norm(w) - 1.0) < 1e-12

    def test_involution_on_complete_blocks(self):
        v = random_block_state(40, seed=8)
        w = apply_beam_splitter(apply_beam_splitter(v))
        assert np.max(np.abs(w - v)) < 1e-12

    def test_block_orthogonality(self):
        dim = 30
        for s, (lo, mat) in enumerate(fock_oracle._bs_blocks(dim)):
            if s >= dim:
                break
            dev = np.max(np.abs(mat.T @ mat - np.eye(s + 1)))
            assert dev < 1e-12

    @pytest.mark.parametrize("dim", [25, 57, 81])
    def test_blocks_match_exact_reference(self, dim):
        # every S, the truncated S >= dim blocks included
        got = list(fock_oracle._bs_blocks(dim))
        want = exact_bs_blocks(dim)
        assert len(got) == len(want) == 2 * dim - 1
        for (lo, mat), (lo_ref, ref) in zip(got, want):
            assert lo == lo_ref
            assert mat.shape == ref.shape
            assert np.max(np.abs(mat - ref)) <= 1e-13

    def test_large_dimension_unitary_and_involutory(self):
        dim = 262
        t0 = time.perf_counter()
        blocks = list(fock_oracle._bs_blocks(dim))
        assert time.perf_counter() - t0 < 5.0
        for s, (lo, mat) in enumerate(blocks[:dim]):
            eye = np.eye(s + 1)
            assert np.max(np.abs(mat.T @ mat - eye)) <= 1e-10
            assert np.max(np.abs(mat @ mat - eye)) <= 1e-10

    def test_blocks_streamed_without_cache(self):
        assert inspect.isgeneratorfunction(fock_oracle._bs_blocks)
        apply_beam_splitter(random_block_state(30, seed=4))
        held = [name for name, value in vars(fock_oracle).items()
                if not name.startswith("__")
                and isinstance(value, (dict, list, set))]
        assert held == []

    def test_photon_number_conserved(self):
        dim = 24
        n1, n2 = np.indices((dim, dim))
        total = n1 + n2
        for seed in (1, 2, 3):
            v = random_block_state(dim, seed)
            w = apply_beam_splitter(v)
            before = float(np.sum(total * np.abs(v) ** 2))
            after = float(np.sum(total * np.abs(w) ** 2))
            assert abs(before - after) < 1e-10

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            apply_beam_splitter(np.zeros((3, 4), dtype=complex))
        with pytest.raises(DimensionMismatch):
            apply_beam_splitter(np.zeros(5, dtype=complex))


class TestProjection:
    def test_vacuum_product(self):
        dim = 12
        amps = product_state(coherent_fock(0.0, dim), coherent_fock(0.0, dim))
        v, dens = project_quadrature(amps, 0.0)
        assert abs(dens - 1.0 / math.sqrt(math.pi)) < 1e-14
        # conditional state is the vacuum
        vhat = v / np.linalg.norm(v)
        assert abs(abs(vhat[0]) - 1.0) < 1e-14

    def test_zero_probability(self):
        dim = 12
        amps = product_state(coherent_fock(0.0, dim), coherent_fock(0.0, dim))
        with pytest.raises(ZeroProbability):
            project_quadrature(amps, 40.0)

    def test_marginal_integrates_to_one(self):
        from catforge import crosscheck, protocol
        out, _, _ = crosscheck.oracle_pipeline(protocol.ProtocolParams(1.0, 0.1))
        xs, ws = gauss_legendre(-8.0, 8.0)
        total = 0.0
        for x, w in zip(xs, ws):
            _, dens = project_quadrature(out, x)
            total += w * dens
        assert abs(total - 1.0) < 1e-6

    def test_rejects_vector(self):
        with pytest.raises(DimensionMismatch):
            project_quadrature(np.zeros(5, dtype=complex), 0.0)


class TestGaussLegendre:
    def test_exact_on_smooth_integrand(self):
        xs, ws = gauss_legendre(0.0, math.pi)
        assert abs(np.sum(ws * np.sin(xs)) - 2.0) < 1e-14

    def test_partition_of_length(self):
        xs, ws = gauss_legendre(-3.0, 5.0)
        assert abs(ws.sum() - 8.0) < 1e-13
        assert xs.size == 80 * 16

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            gauss_legendre(1.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre(1.0, 0.0)

    def test_default_panels(self):
        # the fewest panels of width <= 0.1, GL_ORDER = 16 nodes each
        assert gauss_legendre(-0.2, 0.2)[0].size == 4 * 16
        assert gauss_legendre(-0.2, 0.21)[0].size == 5 * 16
        assert gauss_legendre(-1e-4, 1e-4)[0].size == 16


class TestWindowState:
    @staticmethod
    def pipeline(alpha0=1.0, phi=0.1):
        from catforge import crosscheck, protocol
        return crosscheck.oracle_pipeline(protocol.ProtocolParams(alpha0, phi))[0]

    def test_density_invariants(self):
        # unit trace and positivity of the windowed density, never formed:
        # its fidelities to the Fock basis states are >= 0 and sum to 1
        out = self.pipeline()
        window = HomodyneWindow(0.0, 0.3)
        fids = []
        for k in range(out.shape[0]):
            basis = np.zeros(out.shape[0], dtype=complex)
            basis[k] = 1.0
            prob, fid = window_metrics(out, window, basis)
            assert 0.0 < prob < 1.0
            fids.append(fid)
        assert min(fids) >= 0.0
        assert abs(sum(fids) - 1.0) < 1e-10

    def test_small_window_approaches_projection(self):
        out = self.pipeline()
        v, _ = project_quadrature(out, 0.0)
        vhat = v / np.linalg.norm(v)
        _, fid = window_metrics(out, HomodyneWindow(0.0, 1e-4), vhat)
        assert fid >= 1.0 - 1e-6

    def test_wide_window_captures_everything(self):
        out = self.pipeline()
        target = np.eye(out.shape[0], dtype=complex)[0]
        prob, _ = window_metrics(out, HomodyneWindow(0.0, 10.0), target)
        assert abs(prob - 1.0) < 1e-6

    def test_matches_node_loop(self):
        # the per-node density sum the vectorised node sums replace
        out = self.pipeline(alpha0=2.0, phi=0.3)
        window = HomodyneWindow(0.1, 0.4)
        target = coherent_fock(0.8 - 0.3j, out.shape[0])
        target /= np.linalg.norm(target)
        prob, fid = window_metrics(out, window, target)
        xs, ws = gauss_legendre(window.lo, window.hi)
        ref = np.zeros((out.shape[0],) * 2, dtype=complex)
        for x, w in zip(xs, ws):
            v = quadrature_eigvec(x, out.shape[0]) @ out
            ref += w * np.outer(v, v.conjugate())
        ref_prob = np.trace(ref).real
        assert abs(prob - ref_prob) <= 1e-14
        assert abs(fid - np.vdot(target, ref @ target).real / ref_prob) <= 1e-12

    def test_zero_probability_window(self):
        out = self.pipeline()
        target = np.eye(out.shape[0], dtype=complex)[0]
        with pytest.raises(ZeroProbability):
            window_metrics(out, HomodyneWindow(40.0, 0.1), target)

    def test_rejects_vector(self):
        with pytest.raises(DimensionMismatch):
            window_metrics(np.zeros(5, dtype=complex), HomodyneWindow(0.0, 0.1),
                           np.zeros(5, dtype=complex))


class TestFidelity:
    def test_self(self):
        v = coherent_fock(0.7 + 0.2j, 30)
        assert abs(fidelity(v, v) - 1.0) < 1e-12

    def test_vacuum_vs_coherent(self):
        v = coherent_fock(1.0, 40)
        e0 = np.zeros(40, dtype=complex)
        e0[0] = 1.0
        assert abs(fidelity(e0, v) - math.exp(-1.0)) < 1e-12
        assert abs(fidelity(v, e0) - math.exp(-1.0)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(coherent_fock(0, 8), coherent_fock(0, 9))
        with pytest.raises(DimensionMismatch):
            fidelity(np.eye(4, dtype=complex) / 4.0, coherent_fock(0, 8))
        with pytest.raises(DimensionMismatch):
            fidelity(coherent_fock(0, 8), np.eye(8, dtype=complex))

    def test_clipped_to_unit_interval(self):
        v = coherent_fock(0.3, 20)
        w = 1.0000000001 * v
        assert fidelity(w, v / np.linalg.norm(v)) <= 1.0


def test_default_cap_is_documented_value():
    assert DEFAULT_FOCK_CAP == 860


def test_cap_message_predicts_cost_and_names_overrides():
    with pytest.raises(TruncationTooLarge) as info:
        choose_truncation(50.0)
    msg = str(info.value)
    assert "3020 exceeds cap 860" in msg
    assert "predicted to take about 413 s" in msg
    assert "--max-fock" in msg and "CATFORGE_MAX_FOCK" in msg
