"""PowerTrust baseline: LRW acceleration and power-node bias."""

import numpy as np
import pytest

from repro.baselines import powertrust
from repro.baselines.powertrust import PowerTrust
from repro.errors import ValidationError


class TestFixedPoint:
    def test_converges_to_probability_vector(self, random_S):
        res = PowerTrust(random_S, ring_bits=None).compute()
        assert res.converged
        assert res.vector.sum() == pytest.approx(1.0)
        assert np.all(res.vector >= -1e-12)

    def test_power_nodes_reported(self, random_S, monkeypatch):
        monkeypatch.setattr(powertrust, "_POWER_FRACTION", 0.1)
        res = PowerTrust(random_S, ring_bits=None).compute()
        assert len(res.power_nodes) == max(1, int(random_S.n * 0.1))
        # Power nodes are the top of the converged ranking.
        top = set(np.argsort(-res.vector)[: len(res.power_nodes)].tolist())
        assert set(res.power_nodes) == top

    def test_lookahead_reduces_iterations(self, random_S):
        with_lrw = PowerTrust(
            random_S, lookahead=True, alpha=0.0 + 1e-9, ring_bits=None
        ).compute()
        without = PowerTrust(
            random_S, lookahead=False, alpha=0.0 + 1e-9, ring_bits=None
        ).compute()
        assert with_lrw.iterations < without.iterations

    def test_lookahead_same_fixed_point_at_alpha_zero(self, random_S):
        # S and S@S share the principal left eigenvector.
        a = PowerTrust(random_S, lookahead=True, alpha=1e-12, ring_bits=None).compute()
        b = PowerTrust(random_S, lookahead=False, alpha=1e-12, ring_bits=None).compute()
        assert np.allclose(a.vector, b.vector, atol=1e-6)


class TestOverhead:
    def test_dht_accounting_enabled_by_default(self, random_S):
        res = PowerTrust(random_S).compute()
        assert res.dht_lookups == random_S.nnz
        assert res.dht_hops > 0

    def test_pure_math_mode_skips_dht(self, random_S):
        res = PowerTrust(random_S, ring_bits=None).compute()
        assert res.dht_lookups == 0
        assert res.dht_hops == 0


class TestValidation:
    def test_rejects_bad_alpha(self, random_S):
        with pytest.raises(ValidationError):
            PowerTrust(random_S, alpha=1.0)
