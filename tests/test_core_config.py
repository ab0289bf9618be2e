"""GossipTrustConfig validation and derived values."""

import pytest

from repro.core.config import GossipTrustConfig
from repro.errors import ConfigurationError


class TestDefaults:
    def test_paper_table2_defaults(self):
        cfg = GossipTrustConfig()
        assert cfg.n == 1000
        assert cfg.alpha == 0.15
        assert cfg.power_node_fraction == 0.01
        assert cfg.delta == 1e-3
        assert cfg.epsilon == 1e-4

    def test_max_power_nodes_is_one_percent(self):
        assert GossipTrustConfig(n=1000).max_power_nodes == 10

    def test_max_power_nodes_at_least_one_when_alpha_positive(self):
        assert GossipTrustConfig(n=50, alpha=0.15).max_power_nodes == 1

    def test_max_power_nodes_zero_when_alpha_zero(self):
        assert GossipTrustConfig(n=50, alpha=0.0).max_power_nodes == 0


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 1},
            {"alpha": 1.0},
            {"alpha": -0.1},
            {"power_node_fraction": 1.5},
            {"delta": 0.0},
            {"epsilon": -1e-4},
            {"max_cycles": 0},
            {"max_gossip_steps": 0},
            {"engine_mode": "quantum"},
            {"partner_strategy": "chord"},
            {"mass_restore_budget": 1.0},
            {"kernel": "fast"},
            {"kernel": "legacy"},
            {"kernel": "warp"},
            {"dtype": "float16"},
            {"kernel": "legacy", "dtype": "float32"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            GossipTrustConfig(**kwargs)

    def test_kernel_and_dtype_defaults(self):
        cfg = GossipTrustConfig()
        assert cfg.kernel == "sparse"
        assert cfg.dtype == "float64"

    def test_sparse_float32_accepted(self):
        cfg = GossipTrustConfig(kernel="sparse", dtype="float32")
        assert cfg.kernel == "sparse"
        assert cfg.dtype == "float32"

    @pytest.mark.parametrize("kernel", ["fast", "legacy"])
    def test_removed_kernels_rejected(self, kernel):
        with pytest.raises(ConfigurationError, match="only kernel is 'sparse'"):
            GossipTrustConfig(kernel=kernel)


class TestUpdates:
    def test_with_updates_returns_new_validated_config(self):
        cfg = GossipTrustConfig(n=100)
        cfg2 = cfg.with_updates(alpha=0.3)
        assert cfg2.alpha == 0.3
        assert cfg.alpha == 0.15  # original untouched

    def test_with_updates_revalidates(self):
        with pytest.raises(ConfigurationError):
            GossipTrustConfig().with_updates(delta=-1.0)

    def test_frozen(self):
        with pytest.raises(Exception):
            GossipTrustConfig().n = 5
