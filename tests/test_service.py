"""The long-lived reputation service: ingest, epochs, serving, parity.

The warm-vs-cold parity tests run with the runtime invariant sanitizer
armed (the ``REPRO_SANITIZE=1`` posture), so every row-stochasticity
check inside delta application and aggregation fires for real.
"""

import numpy as np
import pytest

from repro.analysis.sanitizer import set_sanitize_enabled
from repro.core.config import GossipTrustConfig
from repro.core.gossiptrust import GossipTrust
from repro.errors import ValidationError
from repro.gossip.convergence import average_relative_error
from repro.service import (
    ReputationService,
    ServeSimConfig,
    populate_ledger,
    simulate_service,
)
from repro.types import TransactionOutcome


@pytest.fixture(autouse=True)
def _sanitizer_armed():
    """Run every service test with the invariant sanitizer on."""
    set_sanitize_enabled(True)
    yield
    set_sanitize_enabled(None)


def _seeded_service(n=30, seed=0, **kwargs) -> ReputationService:
    svc = ReputationService(
        n,
        GossipTrustConfig(n=n, seed=seed, compute_reference=False),
        rng=seed,
        **kwargs,
    )
    populate_ledger(svc.ledger, rng=seed)
    return svc


class TestIngest:
    def test_events_count_as_pending_until_epoch(self):
        svc = _seeded_service()
        svc.run_epoch()
        assert svc.pending_events == 0
        svc.ingest(0, 1, TransactionOutcome.AUTHENTIC)
        svc.ingest(2, 3, TransactionOutcome.INAUTHENTIC)
        assert svc.pending_events == 2
        svc.run_epoch()
        assert svc.pending_events == 0

    def test_ingest_validates_like_the_ledger(self):
        svc = _seeded_service()
        with pytest.raises(ValidationError):
            svc.ingest(0, 0, TransactionOutcome.AUTHENTIC)
        with pytest.raises(ValidationError):
            svc.ingest(99, 0, TransactionOutcome.AUTHENTIC)


class TestEpochs:
    def test_first_epoch_is_cold_full_build(self):
        svc = _seeded_service()
        report = svc.run_epoch()
        assert report.epoch == 1
        assert report.warm_started is False
        assert report.dirty_rows == svc.n
        assert report.converged

    def test_later_epochs_warm_start_with_row_deltas(self):
        svc = _seeded_service()
        svc.run_epoch()
        svc.ingest(0, 1, TransactionOutcome.AUTHENTIC)
        svc.ingest(0, 2, TransactionOutcome.AUTHENTIC)
        svc.ingest(5, 3, TransactionOutcome.AUTHENTIC)
        report = svc.run_epoch()
        assert report.epoch == 2
        assert report.warm_started is True
        assert report.dirty_rows == 2  # raters 0 and 5
        assert report.events_absorbed == 3

    def test_epoch_with_no_feedback_still_publishes(self):
        svc = _seeded_service()
        first = svc.run_epoch()
        second = svc.run_epoch()
        assert second.epoch == first.epoch + 1
        assert second.dirty_rows == 0
        assert second.events_absorbed == 0

    def test_config_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ReputationService(10, GossipTrustConfig(n=11))

    def test_epoch_reports_accumulate(self):
        svc = _seeded_service()
        svc.run_epoch()
        svc.run_epoch()
        reports = svc.epoch_reports
        assert [r.epoch for r in reports] == [1, 2]


class TestServing:
    def test_lookup_before_first_epoch_rejected(self):
        svc = _seeded_service()
        with pytest.raises(ValidationError):
            svc.lookup(0)
        with pytest.raises(ValidationError):
            svc.scores()

    def test_served_score_carries_staleness_stamp(self):
        svc = _seeded_service()
        svc.run_epoch()
        fresh = svc.lookup(3)
        assert fresh.epoch == 1
        assert fresh.pending_events == 0
        svc.ingest(0, 1, TransactionOutcome.AUTHENTIC)
        stale = svc.lookup(3)
        assert stale.epoch == 1  # still the old snapshot...
        assert stale.pending_events == 1  # ...and it says how far behind

    def test_served_score_approximates_exact(self):
        svc = _seeded_service(bracket_bits=8)
        svc.run_epoch()
        for node in range(0, svc.n, 7):
            served = svc.lookup(node).score
            exact = float(svc.scores()[node])
            if exact > 1e-9:
                assert served / exact < 3.0
                assert exact / served < 3.0

    def test_double_buffer_swaps_every_epoch(self):
        svc = _seeded_service()
        svc.run_epoch()
        first = svc._serving
        svc.run_epoch()
        assert svc._serving != first
        svc.run_epoch()
        assert svc._serving == first

    def test_lookup_validates_range(self):
        svc = _seeded_service()
        svc.run_epoch()
        with pytest.raises(ValidationError):
            svc.lookup(svc.n)

    def test_top_matches_vector_order(self):
        svc = _seeded_service()
        svc.run_epoch()
        top = svc.top(3)
        vector = svc.scores()
        assert [node for node, _ in top] == list(np.argsort(vector)[::-1][:3])
        assert top[0][1] >= top[1][1] >= top[2][1]

    def test_stats_counters(self):
        svc = _seeded_service()
        svc.run_epoch()
        svc.ingest(0, 1, TransactionOutcome.AUTHENTIC)
        stats = svc.stats()
        assert stats.epoch == 1
        assert stats.events_pending == 1
        assert stats.total_cycles >= 1
        assert stats.store.bloom_bytes > 0


class TestWarmColdParity:
    def test_warm_epoch_matches_cold_scratch_within_epsilon(self):
        # The acceptance property at test scale: after stabilization,
        # a warm incremental epoch and a cold from-scratch run on the
        # same matrix and power-node set converge to the same vector.
        svc = _seeded_service(n=60, seed=2)
        svc.run_epoch()
        for _ in range(6):
            if svc.run_epoch().power_node_churn == 0.0:  # noqa: GT004
                break
        svc.ingest(0, 1, TransactionOutcome.AUTHENTIC)
        svc.ingest(7, 2, TransactionOutcome.INAUTHENTIC)
        power = svc.power_nodes
        warm = svc.run_epoch()
        assert warm.warm_started
        cold = GossipTrust(svc.matrix, svc.config, power_nodes=power, rng=3).run(
            raise_on_budget=False, compute_reference=False
        )
        # Two delta=1e-3 runs agree to the few-1e-3 scale at worst.
        assert average_relative_error(svc.scores(), cold.vector) < 5e-3

    def test_incremental_matrix_matches_full_rebuild(self):
        from repro.trust.matrix import TrustMatrix

        svc = _seeded_service(n=40, seed=4)
        svc.run_epoch()
        for rater, ratee in [(0, 1), (0, 2), (11, 5), (23, 0)]:
            svc.ingest(rater, ratee, TransactionOutcome.AUTHENTIC)
        svc.run_epoch()
        rebuilt = TrustMatrix.from_ledger(svc.ledger)
        assert np.allclose(svc.matrix.dense(), rebuilt.dense())


class TestSimulation:
    def test_populate_ledger_is_deterministic(self):
        from repro.trust.feedback import FeedbackLedger

        a, b = FeedbackLedger(30), FeedbackLedger(30)
        pairs_a = populate_ledger(a, rng=5)
        pairs_b = populate_ledger(b, rng=5)
        assert pairs_a == pairs_b
        assert sorted(a.nonzero_pairs()) == sorted(b.nonzero_pairs())

    def test_populate_ledger_rejects_tiny_network(self):
        from repro.trust.feedback import FeedbackLedger

        with pytest.raises(ValidationError):
            populate_ledger(FeedbackLedger(1), rng=0)
        with pytest.raises(ValidationError):
            populate_ledger(FeedbackLedger(10), mean_balance=0.5, rng=0)

    def test_simulate_service_report_shape(self):
        report = simulate_service(
            ServeSimConfig(
                n=40, epochs=2, events_per_epoch=10, queries_per_epoch=30, seed=6
            )
        )
        # epochs measured + the final comparison epoch
        assert len(report.epoch_reports) == 3
        assert report.ingest_events_per_s > 0
        assert report.queries_per_s > 0
        assert report.mean_staleness_events == pytest.approx(10.0)
        assert report.max_staleness_events == 10
        assert report.cold_cycles > 0
        assert report.warm_cycles > 0
        assert report.vector_error < 5e-2
        assert report.store_compression > 0

    def test_simulate_config_validation(self):
        with pytest.raises(ValidationError):
            ServeSimConfig(n=1)
        with pytest.raises(ValidationError):
            ServeSimConfig(epochs=0)
        with pytest.raises(ValidationError):
            ServeSimConfig(dirty_fraction=0.0)
        with pytest.raises(ValidationError):
            ServeSimConfig(events_per_epoch=0)
        with pytest.raises(ValidationError):
            ServeSimConfig(queries_per_epoch=-1)


class TestCli:
    def test_serve_sim_subcommand_renders_report(self, capsys):
        from repro.cli import main

        code = main(
            [
                "serve-sim",
                "--n", "40",
                "--epochs", "1",
                "--events", "5",
                "--queries", "10",
                "--seed", "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "service epochs" in out
        assert "wall speedup (x)" in out
        assert "mean staleness (events)" in out


class TestFailurePolicy:
    """Aggregation failures serve stale snapshots instead of raising."""

    def _failing(self, svc, exc):
        def boom(**kwargs):
            raise exc

        svc._system.run = boom  # simulate an aggregation blow-up

    def test_failed_epoch_serves_stale_with_staleness(self):
        from repro.errors import ConvergenceError

        svc = _seeded_service()
        ok = svc.run_epoch()
        baseline = svc.lookup(0).score
        svc.ingest(0, 1, TransactionOutcome.AUTHENTIC)
        self._failing(svc, ConvergenceError("cycle budget blown"))
        report = svc.run_epoch()
        assert report.failed and not report.skipped
        assert report.error.startswith("ConvergenceError")
        assert report.epoch == ok.epoch  # no new snapshot published
        # The stale snapshot keeps serving, stamped with what it missed.
        served = svc.lookup(0)
        assert served.score == baseline
        assert served.pending_events == 1

    def test_consecutive_failures_back_off_exponentially(self):
        from repro.errors import ConvergenceError

        svc = _seeded_service()
        svc.run_epoch()
        self._failing(svc, ConvergenceError("down"))
        flags = []
        for _ in range(8):
            r = svc.run_epoch()
            flags.append("skip" if r.skipped else "fail")
        # fail, skip(1), fail, skip(2), fail, skip(4)...
        assert flags == [
            "fail", "skip", "fail", "skip", "skip", "fail", "skip", "skip",
        ]

    def test_success_resets_the_backoff(self):
        from repro.errors import ConvergenceError

        svc = _seeded_service()
        svc.run_epoch()
        real_run = svc._system.run
        self._failing(svc, ConvergenceError("down"))
        assert svc.run_epoch().failed
        svc._system.run = real_run  # aggregation recovers
        assert svc.run_epoch().skipped  # one backoff skip still pending
        report = svc.run_epoch()
        assert report.converged and not report.failed
        # Backoff cleared: the next failure starts over at one skip.
        self._failing(svc, ConvergenceError("down again"))
        assert svc.run_epoch().failed
        assert svc.run_epoch().skipped
        svc._system.run = real_run
        assert svc.run_epoch().converged

    def test_failed_events_reaggregate_on_recovery(self):
        from repro.errors import ConvergenceError

        svc = _seeded_service()
        svc.run_epoch()
        svc.ingest(0, 1, TransactionOutcome.AUTHENTIC)
        real_run = svc._system.run
        self._failing(svc, ConvergenceError("down"))
        svc.run_epoch()
        assert svc.pending_events == 1  # restored, not silently dropped
        svc._system.run = real_run
        svc.run_epoch()  # backoff skip
        report = svc.run_epoch()
        assert report.converged
        assert svc.pending_events == 0
