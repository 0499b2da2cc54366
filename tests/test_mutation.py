"""Mutation distributions: exact frozen moments, Monte-Carlo agreement, and
stream determinism/independence."""
from __future__ import annotations

import numpy as np
import numpy.testing as npt
import pytest

from desopt import MutationKind, MutationModel, RngStream
from desopt.mutation import draw_terms
from mutation_oracles import (
    empirical_covariance,
    empirical_moments,
    fourth_moment_closed_form,
    sample,
)

MIXTURE_KINDS = [MutationKind.MIXTURE_GAUSSIAN, MutationKind.MIXTURE_RADEMACHER]
ALL_KINDS = [MutationKind.STANDARD_GAUSSIAN] + MIXTURE_KINDS
GRID = [(4, 1), (4, 2), (16, 4)]


def test_replay_is_bit_identical():
    for kind in ALL_KINDS:
        model = MutationModel(kind, n=16, l=4)
        a = RngStream(123, 5, 2, "mutation")
        b = RngStream(123, 5, 2, "mutation")
        for _ in range(20):
            npt.assert_array_equal(sample(model, a), sample(model, b))


def test_distinct_keys_produce_distinct_streams():
    model = MutationModel(MutationKind.STANDARD_GAUSSIAN, n=8)
    base = sample(model, RngStream(123, 5, 2, "mutation"))
    for key in [(123, 5, 3, "mutation"), (123, 6, 2, "mutation"), (123, 5, 2, "batch"), (124, 5, 2, "mutation")]:
        other = sample(model, RngStream(*key))
        assert not np.array_equal(base, other)


def test_negative_key_component_rejected():
    with pytest.raises(ValueError):
        RngStream(1, -3, "mutation")


def test_model_validation():
    with pytest.raises(ValueError):
        MutationModel(MutationKind.MIXTURE_GAUSSIAN, n=0, l=1)
    with pytest.raises(ValueError):
        MutationModel(MutationKind.MIXTURE_GAUSSIAN, n=4, l=0)


def test_draw_terms_rejects_dense_model():
    model = MutationModel(MutationKind.STANDARD_GAUSSIAN, n=4)
    with pytest.raises(ValueError):
        draw_terms(model, RngStream(0, "x").gen)


def test_mixture_sparsity():
    # At most l nonzero coordinates (fewer when indices collide).
    for kind in MIXTURE_KINDS:
        model = MutationModel(kind, n=32, l=4)
        stream = RngStream(7, "sparsity", kind.value)
        for _ in range(200):
            u = sample(model, stream)
            assert u.shape == (32,)
            assert np.count_nonzero(u) <= 4


def test_rademacher_single_term_support():
    # n=4, l=1: exactly one nonzero, equal to +-sqrt(4/1) = +-2.
    model = MutationModel(MutationKind.MIXTURE_RADEMACHER, n=4, l=1)
    stream = RngStream(11, "support")
    seen = set()
    for _ in range(200):
        u = sample(model, stream)
        nz = np.flatnonzero(u)
        assert nz.size == 1
        assert u[nz[0]] in (2.0, -2.0)
        seen.add((int(nz[0]), u[nz[0]]))
    assert len(seen) == 8  # all 4 coordinates x both signs show up


def test_gaussian_mixture_scale():
    # n=4, l=2: every nonzero entry is sqrt(2) times a standard normal sum,
    # and the scaled values returned by draw_terms carry exactly that factor.
    model = MutationModel(MutationKind.MIXTURE_GAUSSIAN, n=4, l=2)
    assert model.scale == pytest.approx(np.sqrt(2.0), abs=0.0)
    gen = RngStream(3, "scale").gen
    idx, vals = draw_terms(model, gen)
    assert idx.shape == (2,)
    assert vals.shape == (2,)


@pytest.mark.parametrize("kind", MIXTURE_KINDS)
def test_draw_terms_block(kind):
    # a block of count samples: (count, l) indices in [0, n) and values
    # carrying the sqrt(n/l) scale, ±scale exactly for the sign kind
    model = MutationModel(kind, n=50, l=3)
    idx, vals = draw_terms(model, RngStream(4, "block").gen, 4000)
    assert idx.shape == vals.shape == (4000, 3)
    assert np.issubdtype(idx.dtype, np.integer)
    assert idx.min() == 0 and idx.max() == 49
    z = vals / model.scale
    if kind is MutationKind.MIXTURE_RADEMACHER:
        assert set(np.unique(vals)) == {-model.scale, model.scale}
    assert abs(z.mean()) < 0.05 and abs(z.var() - 1.0) < 0.05
    one_idx, one_vals = draw_terms(model, RngStream(4, "block").gen, 1)
    assert one_idx.shape == one_vals.shape == (1, 3)


def test_collisions_accumulate():
    from helpers import ScriptedGen

    model = MutationModel(MutationKind.MIXTURE_GAUSSIAN, n=4, l=2)
    gen = ScriptedGen(normals=[[1.5, -0.5]], ints=[[1, 1]])
    idx, vals = draw_terms(model, gen)
    u = np.zeros(4)
    np.add.at(u, idx, vals)
    expected = np.sqrt(2.0) * (1.5 - 0.5)
    npt.assert_allclose(u, [0.0, expected, 0.0, 0.0], rtol=0, atol=1e-15)


def test_variance_close_to_identity_diagonal():
    # Quick per-coordinate variance check; the high-sample version runs in
    # the acceptance suite.
    for kind in ALL_KINDS:
        for n, l in GRID:
            model = MutationModel(kind, n=n, l=l)
            stream = RngStream(2024, "var", kind.value, n, l)
            est = empirical_moments(model, stream, np.eye(n)[0], 200_000)
            assert est.var_diag.shape == (n,)
            # ~4 SE at 2e5 samples for the heaviest-tailed kind; the tight
            # 1e6-sample band is enforced by the acceptance suite.
            npt.assert_allclose(est.var_diag, np.ones(n), rtol=0, atol=0.03)


def test_covariance_off_diagonal_small():
    for kind in ALL_KINDS:
        for n, l in GRID:
            model = MutationModel(kind, n=n, l=l)
            stream = RngStream(99, "cov", kind.value, n, l)
            cov = empirical_covariance(model, stream, 1_000_000)
            off = cov - np.diag(np.diag(cov))
            assert np.max(np.abs(off)) < 0.01
            npt.assert_allclose(np.diag(cov), np.ones(n), rtol=0, atol=0.01)


def test_fourth_moment_closed_forms_frozen():
    e1 = lambda n: np.eye(n)[0]
    uniform = lambda n: np.full(n, 1.0 / np.sqrt(n))
    mg = MutationKind.MIXTURE_GAUSSIAN
    mr = MutationKind.MIXTURE_RADEMACHER
    g = MutationKind.STANDARD_GAUSSIAN

    # Unit-norm probes keep ||y||_2^4 = 1; values below were derived by hand
    # and cross-checked by Monte Carlo before being frozen.
    assert fourth_moment_closed_form(MutationModel(mg, 4, 1), e1(4)) == 12.0
    assert fourth_moment_closed_form(MutationModel(mg, 4, 2), e1(4)) == 7.5
    assert fourth_moment_closed_form(MutationModel(mg, 16, 4), e1(16)) == 14.25
    assert fourth_moment_closed_form(MutationModel(mr, 4, 1), e1(4)) == 4.0
    assert fourth_moment_closed_form(MutationModel(mr, 4, 2), e1(4)) == 3.5
    assert fourth_moment_closed_form(MutationModel(mr, 16, 4), e1(16)) == 6.25
    for n, l in GRID:
        assert fourth_moment_closed_form(MutationModel(g, n, l), e1(n)) == 3.0
        npt.assert_allclose(fourth_moment_closed_form(MutationModel(g, n, l), uniform(n)), 3.0, rtol=1e-12)
        npt.assert_allclose(fourth_moment_closed_form(MutationModel(mg, n, l), uniform(n)), 3.0, rtol=1e-12)
        # mixture Rademacher on the uniform probe: (3l-2)/l.
        npt.assert_allclose(
            fourth_moment_closed_form(MutationModel(mr, n, l), uniform(n)),
            (3.0 * l - 2.0) / l,
            rtol=1e-12,
        )


def test_fourth_moment_monte_carlo_matches_closed_form():
    for kind in ALL_KINDS:
        for n, l in GRID:
            model = MutationModel(kind, n=n, l=l)
            for tag, y in [("e1", np.eye(n)[0]), ("uniform", np.full(n, 1.0 / np.sqrt(n)))]:
                stream = RngStream(7_000, "m4", kind.value, n, l, tag)
                est = empirical_moments(model, stream, y, 200_000)
                want = fourth_moment_closed_form(model, y)
                if est.fourth_moment_se == 0.0:
                    # Degenerate case (e.g. Rademacher l=1 with the uniform
                    # probe has |y^T u| constant): demand exact agreement.
                    npt.assert_allclose(est.fourth_moment, want, rtol=1e-12)
                else:
                    assert abs(est.fourth_moment - want) <= 4.0 * est.fourth_moment_se


def test_kurtosis_ordering_along_coordinate_probe():
    # Empirical heavy-tail ordering at (n, l) = (16, 4), y = e1:
    # mixture Gaussian > mixture Rademacher > dense Gaussian.
    n, l = 16, 4
    y = np.eye(n)[0]
    vals = {}
    for kind in ALL_KINDS:
        stream = RngStream(515, "order", kind.value)
        vals[kind] = empirical_moments(MutationModel(kind, n, l), stream, y, 200_000).fourth_moment
    assert vals[MutationKind.MIXTURE_GAUSSIAN] > vals[MutationKind.MIXTURE_RADEMACHER]
    assert vals[MutationKind.MIXTURE_RADEMACHER] > vals[MutationKind.STANDARD_GAUSSIAN]


def test_cross_stream_correlation_is_negligible():
    a = RngStream(42, 0, 0, "mutation").gen.standard_normal(100_000)
    b = RngStream(42, 0, 1, "mutation").gen.standard_normal(100_000)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.02


def test_empirical_moment_validation():
    model = MutationModel(MutationKind.STANDARD_GAUSSIAN, n=4)
    stream = RngStream(0, "v")
    with pytest.raises(ValueError):
        empirical_moments(model, stream, np.ones(4), 100)
    with pytest.raises(ValueError):
        empirical_moments(model, stream, np.ones(5), 20_000)
    with pytest.raises(ValueError):
        empirical_covariance(model, stream, 100)
