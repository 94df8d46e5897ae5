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
from catforge.config import ZERO_DENSITY
from catforge.errors import DimensionMismatch, DomainError, TruncationTooLarge
from catforge.fock_oracle import (MAX_TOTAL_PHOTONS, apply_beam_splitter,
                                  bs_head, choose_truncation, coherent_fock,
                                  project_quadrature, quadrature_eigvec)
from catforge.quadrature import gauss_legendre
from coherent_terms import even_cat

SQRT2 = math.sqrt(2.0)
HEAD = bs_head(1)  # R_0 alone: every block from the recursion's start


def exact_bs_blocks(dim):
    """Beam-splitter blocks from the binomial expansion in exact integers.

    The reference for fock_oracle._bs_blocks.  The creation operators map
    a^dag -> (c^dag + d^dag)/sqrt2 and b^dag -> (c^dag - d^dag)/sqrt2, so
    within the total-photon-S block

        <p, S-p| U |m, S-m> = 2^(-S/2) K sqrt(p!(S-p)!/(m!(S-m)!)),
        K = sum_j C(m, j) C(S-m, p-j) (-1)^((S-m)-(p-j)),

    with K accumulated in exact integer arithmetic (the alternating binomial
    sum cancels catastrophically in floats), for the blocks S = 0 .. dim - 1
    of the triangle n + m < dim.  Cost grows about as dim^4, so it serves
    dims up to about 81.
    """
    rows = [[math.comb(n, j) for j in range(n + 1)] for n in range(dim)]
    fact = [math.factorial(n) for n in range(dim)]
    blocks = []
    for s in range(dim):
        mat = np.empty((s + 1, s + 1))
        for m in range(s + 1):
            rm, rn = rows[m], rows[s - m]
            # the block is symmetric (the one-photon matrix is), fill p >= m
            for p in range(m, s + 1):
                acc = 0
                for j in range(max(0, p - s + m), min(m, p) + 1):
                    t = rm[j] * rn[p - j]
                    acc += -t if (s - m - p + j) & 1 else t
                val = (acc * math.sqrt((fact[p] * fact[s - p])
                                       / (fact[m] * fact[s - m]))
                       * 0.5 ** (0.5 * s)) if acc else 0.0
                mat[p, m] = mat[m, p] = val
        blocks.append(mat)
    return blocks


def half_rows(dim):
    """(S, T_S[:S//2 + 1]) for S = 0 .. dim - 1: the rows that
    fock_oracle._bs_blocks builds, read off each group's slots while they
    hold it, with the deferred halvings 2^(S mod 8) taken out."""
    for s0, s1, slots in fock_oracle._bs_blocks(dim, HEAD):
        for s in range(s0, s1):
            rows = slots[(s - 1) % len(slots), 1:s // 2 + 2, 1:s + 2]
            yield s, rows * 2.0 ** -(s % 8)


def mirror(rows, s):
    """The whole T_S from its rows p <= S/2, by the flip
    T_S[S-p, S-m] = (-1)^(S+p+m) T_S[p, m]."""
    p, m = np.indices((s + 1, s + 1))
    full = (-1.0) ** (s + p + m) * rows[:, ::-1][np.minimum(s - p, p), m]
    full[:len(rows)] = rows
    return full


def bs_blocks(dim):
    """U_S for S = 0 .. dim - 1: the half rows of fock_oracle._bs_blocks,
    mirrored into the whole block and formed as U_S = diag(w_S) T_S
    diag(w_S) when drawn.  w_S is anti-diagonal S of the output scales of
    fock_oracle._bs_scales, read from the nearer end."""
    flipped = fock_oracle._bs_scales(dim)[1][:, ::-1]
    for s, rows in half_rows(dim):
        w = flipped.diagonal(dim - 1 - s)
        yield w[:, None] * mirror(rows, s) * w


def triangle(amps):
    """amps with every entry on n + m >= dim set to zero: the complete
    total-photon blocks of the truncation."""
    amps = np.array(amps, dtype=complex)
    n1, n2 = np.indices(amps.shape)
    amps[n1 + n2 >= amps.shape[0]] = 0.0
    return amps


def random_source(dim, seed):
    """Random normalized single-mode source of complex amplitudes."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def source_pair(src):
    """The pair src (x) src kept on its triangle n + m < dim."""
    return triangle(np.outer(src, src))


def blockwise_reference(v):
    """The beam splitter applied block by block, each block gathering and
    scattering its anti-diagonal n + m = S entry by entry, on the complex
    two-mode state, for every S < dim."""
    want = np.zeros_like(v)
    for s, mat in enumerate(bs_blocks(v.shape[0])):
        for i in range(s + 1):
            want[i, s - i] = sum(mat[i, k] * v[k, s - k] for k in range(s + 1))
    return want


def coherent_source(amps, dim):
    """A source that is a sum of coherent states |a_i> (normalized in the
    truncation) and what the beam splitter makes of its pair: the sum over
    i, j of |(a_i + a_j)/sqrt2> |(a_i - a_j)/sqrt2>, on the triangle."""
    raw = sum(coherent_fock(a, dim) for a in amps)
    norm = np.linalg.norm(raw)
    want = sum(np.outer(coherent_fock((a + b) / SQRT2, dim),
                        coherent_fock((a - b) / SQRT2, dim))
               for a in amps for b in amps)
    return raw / norm, triangle(want) / norm ** 2


class TestChooseTruncation:
    def test_floor(self):
        assert choose_truncation(0.0) == 20

    def test_formula(self):
        assert choose_truncation(2.0) == 44

    def test_cap(self):
        with pytest.raises(TruncationTooLarge):
            choose_truncation(100.0)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            choose_truncation(-1.0)

    @pytest.mark.parametrize("max_amp", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, max_amp):
        with pytest.raises(DomainError):
            choose_truncation(max_amp)

    @pytest.mark.parametrize("max_amp", [1e100, 1.9e154])
    def test_refuses_past_the_float_range(self, max_amp):
        # the dimension is past 2^53 (1e200 at 1e100), or its square term
        # leaves the float range (1.9e154): both are refusals, not crashes
        with pytest.raises(TruncationTooLarge,
                           match="exceeds the beam splitter's limit 2048"):
            choose_truncation(max_amp)

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
        # the Fock carrier of a Gram-normalized cat has unit Fock norm
        v = sum(w * coherent_fock(a, 40) for w, a in even_cat(1.0))
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
        # dims 1 and 2 end before the recurrence, on its seeds
        for dim in (1, 2, 31):
            for x in (-5.0, -1.3, 0.0, 0.4, 2.2, 5.0):
                v = quadrature_eigvec(x, dim)
                assert v.shape == (dim,)
                for n in range(dim):
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
        src = np.zeros(6, dtype=complex)
        src[0] = 1.0
        out = apply_beam_splitter(src, HEAD)
        assert out[0, 0] == 1.0
        assert np.count_nonzero(out) == 1

    def test_one_photon_block_by_hand(self):
        # |1,0> -> (|1,0> + |0,1>)/sqrt2 and |0,1> -> (|1,0> - |0,1>)/sqrt2,
        # so the pair |1>|1> leaves as (|2,0> - |0,2>)/sqrt2: no |1,1>
        src = np.zeros(4, dtype=complex)
        src[1] = 1.0
        out = apply_beam_splitter(src, HEAD)
        assert abs(out[2, 0] - 1 / SQRT2) < 1e-15
        assert abs(out[0, 2] + 1 / SQRT2) < 1e-15
        assert np.count_nonzero(out) == 2

    def test_coherent_mapping(self):
        # a source of two coherent states: its pair is four coherent pairs
        # |a_i>|a_j>, each leaving as |(a_i + a_j)/sqrt2>|(a_i - a_j)/sqrt2>
        rng = np.random.default_rng(7)
        dim = 60
        for _ in range(10):
            a, b = (complex(*v) for v in rng.uniform(-SQRT2, SQRT2, (2, 2)))
            src, want = coherent_source((a, b), dim)
            assert np.linalg.norm(apply_beam_splitter(src, HEAD) - want) < 1e-8

    def test_merging_equal_inputs(self):
        dim = 60
        a = 1.2 - 0.4j
        out = apply_beam_splitter(coherent_fock(a, dim), HEAD)
        want = np.outer(coherent_fock(SQRT2 * a, dim),
                             coherent_fock(0.0, dim))
        assert np.linalg.norm(out - want) < 1e-8

    def test_unitary_on_complete_blocks(self):
        src = random_source(40, seed=7)
        w = apply_beam_splitter(src, HEAD)
        assert abs(np.linalg.norm(w) - np.linalg.norm(source_pair(src))) < 1e-12

    def test_involution_on_complete_blocks(self):
        # each block is its own inverse: the blocks map the output back
        src = random_source(40, seed=8)
        w = blockwise_reference(apply_beam_splitter(src, HEAD))
        assert np.max(np.abs(w - source_pair(src))) < 1e-12

    def test_block_orthogonality(self):
        dim = 30
        for s, mat in enumerate(bs_blocks(dim)):
            dev = np.max(np.abs(mat.T @ mat - np.eye(s + 1)))
            assert dev < 1e-12

    @pytest.mark.parametrize("dim", [25, 57, 81])
    def test_blocks_match_exact_reference(self, dim):
        # every block of the triangle, S = 0 .. dim - 1
        got = list(bs_blocks(dim))
        want = exact_bs_blocks(dim)
        assert len(got) == len(want) == dim
        for mat, ref in zip(got, want):
            assert mat.shape == ref.shape
            assert np.max(np.abs(mat - ref)) <= 1e-13

    @pytest.mark.parametrize("dim", [25, 57, 81])
    def test_half_rows_match_exact_reference(self, dim):
        # the rows p <= S/2 that _bs_blocks builds, against the exact
        # blocks; the exact rows past S/2 are the flip of those rows
        scales = fock_oracle._bs_scales(dim)[1][:, ::-1]
        for (s, rows), ref in zip(half_rows(dim), exact_bs_blocks(dim)):
            w = scales.diagonal(dim - 1 - s)
            assert rows.shape == (s // 2 + 1, s + 1)
            assert np.max(np.abs(w[:len(rows), None] * rows * w
                                 - ref[:len(rows)])) <= 1e-13
            p, m = np.indices(ref.shape)
            assert np.max(np.abs(ref[::-1, ::-1]
                                 - (-1.0) ** (s + p + m) * ref)) <= 1e-15

    @pytest.mark.parametrize("dim", [25, 57, 81])
    def test_deferred_halvings_are_exact(self, dim):
        # the build that halves every step, with the same flip: R_S is 2^(S
        # mod 8) times it bit for bit (no entry is subnormal at these dims)
        r = dim + 1
        t = np.zeros((dim + 2, r + 1))
        t[1, 1] = 1.0
        for s, rows in half_rows(dim):
            if s:
                h = s // 2
                if not s % 2:
                    t[h + 1, 1:s + 1] = ((-1.0) ** (h + 1 + np.arange(s))
                                         * t[h, s:0:-1])
                new = np.zeros_like(t)
                new[1:h + 2, 1:r + 1] = t[:h + 1, :r] + t[1:h + 2, :r]
                new[1:h + 2, 1:r + 1] += t[:h + 1, 1:]
                new[1:h + 2, 1:r + 1] -= t[1:h + 2, 1:]
                new *= 0.5
                t = new
            assert np.all(np.abs(rows[rows != 0]) >= np.finfo(float).tiny)
            assert np.array_equal(rows, t[1:s // 2 + 2, 1:s + 2])

    def test_pair_output_has_no_odd_kept_counts(self):
        # the pair is swap-symmetric, so U_S[p, S-k] = (-1)^(S-p) U_S[p, k]
        # leaves kept counts m even only: exactly, not to rounding
        for dim, seed in ((2, 1), (7, 2), (40, 3), (81, 4)):
            out = apply_beam_splitter(random_source(dim, seed), HEAD)
            assert not np.any(out[:, 1::2])
        half = complex(math.cos(0.25), math.sin(0.25))
        src, _ = coherent_source((2j * half, 2j * half.conjugate()), 57)
        assert not np.any(apply_beam_splitter(src, HEAD)[:, 1::2])

    @pytest.mark.parametrize("ring", [2, 3, 5])
    def test_output_does_not_depend_on_the_ring(self, monkeypatch, ring):
        # large dimensions keep 2 slots, small ones 16: a group's padded
        # products add exact zeros only, so the output is the same bits
        want = {dim: apply_beam_splitter(random_source(dim, dim), HEAD)
                for dim in (7, 24, 57)}
        for dim, out in want.items():
            slot = 8 * ((dim + 1) // 2 + 1) * (dim + 1)
            monkeypatch.setattr(fock_oracle, "_RING_BYTES", ring * slot)
            assert np.array_equal(
                apply_beam_splitter(random_source(dim, dim), HEAD), out)

    def test_large_dimension_unitary_and_involutory(self):
        dim = 262
        t0 = time.perf_counter()
        blocks = list(bs_blocks(dim))
        assert time.perf_counter() - t0 < 5.0
        for s, mat in enumerate(blocks):
            eye = np.eye(s + 1)
            assert np.max(np.abs(mat.T @ mat - eye)) <= 1e-10
            assert np.max(np.abs(mat @ mat - eye)) <= 1e-10

    @pytest.mark.parametrize("dim", [25, 57])
    def test_unit_weight_stencil_accuracy(self, dim):
        # every weight of the rescaled recursion is one, so each entry
        # carries only a few roundings (at most 3.9e-16 at dims 25 to 81)
        for mat, ref in zip(bs_blocks(dim), exact_bs_blocks(dim)):
            assert np.max(np.abs(mat - ref)) <= 1e-15

    def test_unit_weight_stencil_unitary_at_262(self):
        # 4.1e-15 measured
        for s, mat in enumerate(bs_blocks(262)):
            eye = np.eye(s + 1)
            assert np.max(np.abs(mat.T @ mat - eye)) <= 2e-14
            assert np.max(np.abs(mat @ mat - eye)) <= 2e-14

    def test_refuses_past_the_float_range_of_the_blocks(self):
        # the deferred blocks overflow past S = 2054; dimension 2049 would
        # build S = 2048, and its shape alone is refused (the zeros are
        # never touched)
        assert MAX_TOTAL_PHOTONS == 2047
        with pytest.raises(TruncationTooLarge, match="dimension 2049 reaches "
                           "total photon number 2048, above the limit 2047"):
            apply_beam_splitter(np.zeros(2049, dtype=complex), HEAD)

    def test_photon_limit_boundary(self, monkeypatch):
        # at a limit L, dimension L + 1 (last block S = L) is admitted and
        # L + 2 is refused before any block is built
        limit = 5
        ok = random_source(limit + 1, seed=5)
        want = blockwise_reference(source_pair(ok))
        monkeypatch.setattr(fock_oracle, "MAX_TOTAL_PHOTONS", limit)
        built = []
        all_blocks = fock_oracle._bs_blocks

        def counted(d, head):
            built.append(d)
            return all_blocks(d, head)
        monkeypatch.setattr(fock_oracle, "_bs_blocks", counted)
        assert np.max(np.abs(apply_beam_splitter(ok, HEAD) - want)) <= 1e-14
        assert built == [limit + 1]
        with pytest.raises(TruncationTooLarge, match="photon number 6, above "
                           "the limit 5"):
            apply_beam_splitter(random_source(limit + 2, seed=6), HEAD)
        assert built == [limit + 1]

    def test_blocks_streamed_without_cache(self):
        assert inspect.isgeneratorfunction(fock_oracle._bs_blocks)
        apply_beam_splitter(random_source(30, seed=4), HEAD)
        held = [name for name, value in vars(fock_oracle).items()
                if not name.startswith("__")
                and isinstance(value, (dict, list, set, np.ndarray))]
        assert held == []

    def test_photon_number_conserved(self):
        dim = 24
        n1, n2 = np.indices((dim, dim))
        total = n1 + n2
        for seed in (1, 2, 3):
            v = source_pair(random_source(dim, seed))
            w = apply_beam_splitter(random_source(dim, seed), HEAD)
            before = float(np.sum(total * np.abs(v) ** 2))
            after = float(np.sum(total * np.abs(w) ** 2))
            assert abs(before - after) < 1e-10

    @pytest.mark.parametrize("dim", [1, 2, 3, 24, 57])
    def test_blocks_act_on_their_antidiagonals(self, dim):
        # the pair's triangle n + m < dim only, and the output is zero past
        # it
        src = random_source(dim, seed=dim)
        want = blockwise_reference(source_pair(src))
        got = apply_beam_splitter(src, HEAD)
        assert np.max(np.abs(got - want)) <= 1e-14
        n, m = np.indices(got.shape)
        assert not np.any(got[n + m >= dim])
        # a strided view is read as the array it shows
        assert np.array_equal(apply_beam_splitter(src[::-1], HEAD),
                              apply_beam_splitter(src[::-1].copy(), HEAD))

    @pytest.mark.parametrize("dim", [1, 2, 24, 57])
    @pytest.mark.parametrize("kind", ["triangle", "zero"])
    def test_stops_after_last_occupied_antidiagonal(self, monkeypatch, dim,
                                                    kind):
        # the recursion stops after the triangle's last anti-diagonal,
        # S = dim - 1: exactly dim blocks, whatever the source holds
        if kind == "triangle":
            src = random_source(dim, seed=dim)
        else:
            src = np.zeros(dim, dtype=complex)
        want = blockwise_reference(source_pair(src))
        built = []
        all_blocks = fock_oracle._bs_blocks

        def counted(d, head):
            for s0, s1, slots in all_blocks(d, head):
                built.extend(range(s0, s1))
                yield s0, s1, slots
        monkeypatch.setattr(fock_oracle, "_bs_blocks", counted)
        got = apply_beam_splitter(src, HEAD)
        assert built == list(range(dim))
        assert np.max(np.abs(got - want)) <= 1e-14
        if kind == "zero":
            assert not np.any(got)

    def test_triangle_coherent_pair_maps_exactly(self):
        # total photon number is conserved, so the triangle n + m < dim of a
        # coherent source's pair maps onto the triangle of the output pairs,
        # even at a truncation that cuts deep into both modes (square
        # truncation is off by about 1e-3 here)
        rng = np.random.default_rng(30)
        dim = 30
        for _ in range(10):
            a, b = (complex(v) for v in rng.uniform(2.0, 4.0, 2)
                    * np.exp(2j * np.pi * rng.uniform(size=2)))
            for amps in ((a,), (a, b)):
                src, want = coherent_source(amps, dim)
                assert np.max(np.abs(apply_beam_splitter(src, HEAD)
                                     - want)) <= 1e-14

    def test_rejects_nonsquare(self):
        # the source is one mode: a two-mode state, square or not, and the
        # empty source are refused before any block is built
        for shape in ((3, 4), (5, 5), (0,)):
            with pytest.raises(DimensionMismatch, match="non-empty vector"):
                apply_beam_splitter(np.zeros(shape, dtype=complex), HEAD)


class TestHead:
    KS = (1, 2, 17, 49)

    @pytest.mark.parametrize("ring", [2, 3, 5])
    @pytest.mark.parametrize("dim", [1, 2, 24, 48, 49, 50, 57, 81, 200])
    def test_output_does_not_depend_on_the_head(self, monkeypatch, dim, ring):
        # the products read the head for S < k and the recursion resumes
        # from its last block: the same bits as the build from R_0, under
        # any ring, the head's own build included
        src = random_source(dim, dim)
        want = apply_beam_splitter(src, HEAD)
        slot = 8 * ((dim + 1) // 2 + 1) * (dim + 1)
        monkeypatch.setattr(fock_oracle, "_RING_BYTES", ring * slot)
        for k in self.KS:
            assert np.array_equal(apply_beam_splitter(src, bs_head(k)), want)

    def test_blocks_are_those_of_the_recursion(self):
        # head[S] holds R_S's rows p <= S/2 as _bs_blocks builds them, and
        # zeros past row (S + 1) // 2
        head = bs_head(49)
        assert head.shape == (49, 26, 50)
        for s, rows in half_rows(49):
            h = s // 2
            assert np.array_equal(head[s, 1:h + 2, 1:s + 2],
                                  rows * 2.0 ** (s % 8))
            assert not np.any(head[s, 0]) and not np.any(head[s, :, 0])
            assert not np.any(head[s, 1:h + 2, s + 2:])
            assert not np.any(head[s, (s + 1) // 2 + 2:])
        assert np.array_equal(HEAD, [[[0.0, 0.0], [0.0, 1.0]]])

    def test_head_is_read_only(self):
        head = bs_head(17)
        assert not head.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            head[0, 1, 1] = 0.0

    @pytest.mark.parametrize("k", [0, -1, MAX_TOTAL_PHOTONS + 2])
    def test_refuses_a_head_outside_the_blocks(self, k):
        with pytest.raises(DomainError, match="1 <= k <= 2048"):
            bs_head(k)

    @pytest.mark.parametrize("shape", [(2, 2), (0, 1, 1), (2, 2, 2),
                                       (3, 2, 4), (1, 2, 2, 1)])
    def test_rejects_a_head_of_another_layout(self, shape):
        with pytest.raises(DimensionMismatch, match="head must have shape"):
            apply_beam_splitter(random_source(5, 1), np.zeros(shape))


class TestProjection:
    def test_vacuum_product(self):
        dim = 12
        amps = np.outer(coherent_fock(0.0, dim), coherent_fock(0.0, dim))
        [v] = project_quadrature(amps, quadrature_eigvec([0.0], dim))
        assert abs(np.vdot(v, v).real - 1.0 / math.sqrt(math.pi)) < 1e-14
        # conditional state is the vacuum
        vhat = v / np.linalg.norm(v)
        assert abs(abs(vhat[0]) - 1.0) < 1e-14

    def test_zero_probability(self):
        # far in the tail the density underflows past the floor; the
        # projection returns it as it is, and its caller refuses it
        dim = 12
        amps = np.outer(coherent_fock(0.0, dim), coherent_fock(0.0, dim))
        [v] = project_quadrature(amps, quadrature_eigvec([40.0], dim))
        assert np.vdot(v, v).real < ZERO_DENSITY

    def test_array_matches_one_x_at_a_time(self):
        from catforge import crosscheck, protocol
        out, dim, _ = crosscheck.oracle_pipeline(protocol.ProtocolParams(2.0, 0.3))
        xs = np.array([-4.5, -0.9, 0.0, 0.3, 1.7, 3.7])
        rows = project_quadrature(out, quadrature_eigvec(xs, dim))
        assert rows.shape == (len(xs), out.shape[1])
        for x, row in zip(xs, rows):
            [one] = project_quadrature(out, quadrature_eigvec([x], dim))
            assert np.max(np.abs(row - one)) <= 1e-15

    @pytest.mark.parametrize("size", [81, 128, 300])
    def test_wider_table_reads_its_first_dim_columns(self, size):
        # a table past dim projects as the rows of dim itself, bit for bit:
        # the recurrence's prefix does not depend on how far it runs
        from catforge import crosscheck, protocol
        out, dim, _ = crosscheck.oracle_pipeline(protocol.ProtocolParams(2.0, 0.3))
        xs = np.array([-4.5, -0.9, 0.0, 0.3, 1.7, 3.7])
        want = project_quadrature(out, quadrature_eigvec(xs, dim))
        assert dim <= size
        assert np.array_equal(project_quadrature(out, quadrature_eigvec(xs, size)),
                              want)

    def test_coherent_pair_matches_the_wavefunction(self):
        # each |a_i>|a_j> of a coherent source's pair leaves the beam
        # splitter as |(a_i+a_j)/sqrt2>|(a_i-a_j)/sqrt2>: row x is the sum of
        # <x|(a_i+a_j)/sqrt2> times the output-mode coherent states
        dim = 60
        amps = (0.7 - 0.4j, -0.3 + 0.9j)
        src, _ = coherent_source(amps, dim)
        norm2 = np.linalg.norm(sum(coherent_fock(a, dim) for a in amps)) ** 2
        out = apply_beam_splitter(src, HEAD)
        xs = [-1.3, 0.0, 0.4, 2.2]
        for x, row in zip(xs, project_quadrature(out, quadrature_eigvec(xs, dim))):
            want = sum(cv_core.quadrature_overlap(x, (a + b) / SQRT2)
                       * coherent_fock((a - b) / SQRT2, dim)
                       for a in amps for b in amps) / norm2
            assert np.max(np.abs(row - want)) < 1e-12

    def test_marginal_integrates_to_one(self):
        from catforge import crosscheck, protocol
        out, dim, _ = crosscheck.oracle_pipeline(protocol.ProtocolParams(1.0, 0.1))
        xs, ws, _ = gauss_legendre((((-8.0, 8.0),),))
        dens = np.sum(np.abs(project_quadrature(out, quadrature_eigvec(xs, dim)))
                      ** 2, axis=1)
        assert abs(ws @ dens - 1.0) < 1e-6

    def test_rejects_vector(self):
        h = quadrature_eigvec([0.0], 5)
        with pytest.raises(DimensionMismatch):
            project_quadrature(np.zeros(5, dtype=complex), h)
        # the empty state, with apply_beam_splitter's shape check
        with pytest.raises(DimensionMismatch, match="non-empty"):
            project_quadrature(np.zeros((0, 0), dtype=complex), h)

    @pytest.mark.parametrize("shape", [(5,), (1, 4), (3, 4), (1, 1, 5)])
    def test_rejects_rows_narrower_than_the_state(self, shape):
        # Hermite rows are (nodes, >= dim): too few columns, or no node axis
        with pytest.raises(DimensionMismatch, match=r"\(nodes, >= 5\)"):
            project_quadrature(np.zeros((5, 5), dtype=complex), np.ones(shape))


class TestGaussLegendre:
    def test_exact_on_smooth_integrand(self):
        xs, ws, _ = gauss_legendre((((0.0, math.pi),),))
        assert abs(np.sum(ws * np.sin(xs)) - 2.0) < 1e-14

    def test_partition_of_length(self):
        xs, ws, _ = gauss_legendre((((-3.0, 5.0),),))
        assert abs(ws.sum() - 8.0) < 1e-13
        assert xs.size == 80 * 16

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            gauss_legendre((((1.0, 1.0),),))
        with pytest.raises(DomainError):
            gauss_legendre((((1.0, 0.0),),))

    def test_default_panels(self):
        # the fewest panels of width <= 0.1, GL_ORDER = 16 nodes each
        assert gauss_legendre((((-0.2, 0.2),),))[0].size == 4 * 16
        assert gauss_legendre((((-0.2, 0.21),),))[0].size == 5 * 16
        assert gauss_legendre((((-1e-4, 1e-4),),))[0].size == 16


def test_limit_message_names_the_one_limit():
    # the beam splitter's limit is the only one: the refusal names no cap,
    # no predicted time and no override (the retired flag and environment
    # variable both had "max" in their names)
    with pytest.raises(TruncationTooLarge) as info:
        choose_truncation(50.0)
    msg = str(info.value)
    assert msg.startswith("requested Fock dimension 3020 exceeds the beam "
                          "splitter's limit 2048 (total photon number 2047)")
    for word in ("cap", "predicted", "max"):
        assert word not in msg.lower()
