"""Cross-engine contract suite: every engine, one set of laws.

Each engine listed in :func:`repro.gossip.factory.engine_names` is built
through :func:`make_engine` and driven through one aggregation cycle on
the same fixed 16-node matrix.  The contract every engine must honor:

* constructible via the factory, which rejects options the engine does
  not take;
* mass conservation — the returned vector sums to ~1;
* agreement with the exact product ``S^T v``;
* determinism under a fixed seed;
* :class:`GossipCycleResult` field invariants (steps, mode, telemetry
  counters, per-cycle step log).
"""

import numpy as np
import pytest

from repro.core.config import GossipTrustConfig
from repro.gossip.base import CycleEngine, GossipCycleResult
from repro.gossip.factory import engine_names, make_engine
from repro.trust.matrix import TrustMatrix
from repro.utils.rng import RngStreams

N = 16
SEED = 42
ENGINES = engine_names()


@pytest.fixture(scope="module")
def fixed_S():
    """One fixed, well-conditioned 16-node trust matrix for all engines."""
    gen = np.random.default_rng(SEED)
    raw = gen.random((N, N)) * (gen.random((N, N)) < 0.6)
    np.fill_diagonal(raw, 0.0)
    for i in range(N):
        if raw[i].sum() == 0:
            raw[i, (i + 1) % N] = 1.0
    return TrustMatrix.from_dense_raw(raw)


#: engine-specific options, each passed only to its own engine
OPTIONS = {"message": {"max_rounds": 400}}
#: an option each engine's constructor does not take
FOREIGN = {
    "sync": "max_rounds",
    "async": "max_rounds",
    "structured": "max_rounds",
    "message": "mode",
}


def build(name, seed=SEED, **options):
    """One engine via the factory, tight epsilon, fresh seeded substrate.

    The config carries what every engine shares (a tight epsilon, a
    generous sync step budget); ``OPTIONS`` only an engine's own.
    """
    config = GossipTrustConfig(n=N, epsilon=1e-6, max_gossip_steps=20_000)
    opts = {**OPTIONS.get(name, {}), **options}
    return make_engine(name, config, rng=RngStreams(seed), **opts)


def run_one(name, S, seed=SEED, **options):
    eng = build(name, seed=seed, **options)
    v = np.full(N, 1.0 / N)
    return eng.run_cycle(S, v)


@pytest.mark.parametrize("name", ENGINES)
class TestContract:
    def test_constructible_and_is_cycle_engine(self, name):
        eng = build(name)
        assert isinstance(eng, CycleEngine)
        assert eng.name == name

    def test_factory_rejects_unknown_options(self, name):
        # Options reach the constructor unfiltered: one an engine does
        # not take is an error, not silently dropped.
        option = FOREIGN[name]
        with pytest.raises(TypeError, match=option):
            build(name, **{option: 1})
        with pytest.raises(TypeError, match="completely_unknown_option"):
            build(name, completely_unknown_option=1)

    def test_mass_conservation(self, name, fixed_S):
        res = run_one(name, fixed_S)
        assert res.v_next.shape == (N,)
        assert np.all(np.isfinite(res.v_next))
        assert res.v_next.sum() == pytest.approx(1.0, abs=1e-6)

    def test_agreement_with_exact_product(self, name, fixed_S):
        res = run_one(name, fixed_S)
        exact = fixed_S.dense().T @ np.full(N, 1.0 / N)
        assert np.allclose(res.exact, exact, atol=1e-12)
        assert np.allclose(res.v_next, exact, rtol=5e-2, atol=1e-5)

    def test_seeded_determinism(self, name, fixed_S):
        a = run_one(name, fixed_S, seed=7)
        b = run_one(name, fixed_S, seed=7)
        assert np.array_equal(a.v_next, b.v_next)
        assert a.steps == b.steps
        assert a.messages_sent == b.messages_sent

    def test_result_field_invariants(self, name, fixed_S):
        eng = build(name)
        v = np.full(N, 1.0 / N)
        res = eng.run_cycle(fixed_S, v)
        assert isinstance(res, GossipCycleResult)
        assert res.steps >= 1
        assert res.converged
        assert isinstance(res.mode, str) and res.mode
        assert res.gossip_error >= 0.0
        assert res.messages_sent >= 0
        assert res.messages_dropped >= 0
        assert 0.0 <= res.mass_lost_fraction <= 1.0 or np.isnan(
            res.mass_lost_fraction
        )

    def test_accepts_matrix_array_and_sparse(self, name, fixed_S):
        # The contract takes TrustMatrix, ndarray, or scipy sparse alike.
        v = np.full(N, 1.0 / N)
        r1 = build(name).run_cycle(fixed_S, v)
        r2 = build(name).run_cycle(fixed_S.dense(), v)
        r3 = build(name).run_cycle(fixed_S.sparse(), v)
        for r in (r2, r3):
            assert np.allclose(r.exact, r1.exact, atol=1e-12)


class TestStructuredExactness:
    def test_structured_is_exact_in_log2_rounds(self, fixed_S):
        res = run_one("structured", fixed_S)
        assert res.gossip_error == 0.0
        assert res.steps == 4  # ceil(log2 16)
