"""Runtime invariant sanitizer: unit, arming, armed-contract, fault injection.

Three layers of coverage:

* unit tests of every :class:`InvariantSanitizer` check (pass + raise,
  structured context on the raised :class:`InvariantViolation`);
* arming plumbing — the ``REPRO_SANITIZE`` env flag, the config field,
  factory arming, and the ``CycleEngine.arm_sanitizer`` contract;
* the armed cross-engine contract (every engine completes a clean cycle
  with checks demonstrably firing) plus *fault injection*: a corrupted
  x-mass, a negative w, NaN mass, and a de-normalized trust-matrix row
  must each raise an ``InvariantViolation`` naming where it happened.
"""

import numpy as np
import pytest

from repro.analysis.sanitizer import (
    ENV_FLAG,
    InvariantSanitizer,
    sanitize_enabled,
    set_sanitize_enabled,
)
from repro.core.config import GossipTrustConfig
from repro.errors import InvariantViolation, ReproError
from repro.gossip import engine as engine_mod
from repro.gossip.factory import engine_names, make_engine
from repro.gossip.pushsum import push_sum
from repro.network.transport import Transport
from repro.sim.engine import Simulator
from repro.trust.matrix import TrustMatrix
from repro.utils.rng import RngStreams
from scipy import sparse

N = 16
SEED = 42
ENGINES = engine_names()


@pytest.fixture(autouse=True)
def _reset_forced_flag():
    """Never leak a set_sanitize_enabled override across tests."""
    yield
    set_sanitize_enabled(None)


@pytest.fixture(scope="module")
def fixed_S():
    gen = np.random.default_rng(SEED)
    raw = gen.random((N, N)) * (gen.random((N, N)) < 0.6)
    np.fill_diagonal(raw, 0.0)
    for i in range(N):
        if raw[i].sum() == 0:
            raw[i, (i + 1) % N] = 1.0
    return TrustMatrix.from_dense_raw(raw)


def build(name, seed=SEED, **options):
    opts = {"epsilon": 1e-6, "max_rounds": 400, "max_steps": 20_000}
    opts.update(options)
    return make_engine(name, n=N, rng=RngStreams(seed), **opts)


# -- unit: the checks --------------------------------------------------------


class TestInvariantSanitizerUnit:
    def test_rel_tol_must_be_positive(self):
        with pytest.raises(ValueError):
            InvariantSanitizer(rel_tol=0.0)

    def test_counters_and_begin_cycle(self):
        san = InvariantSanitizer()
        assert (san.checks, san.cycle) == (0, 0)
        assert san.begin_cycle("sync") == 1
        assert san.begin_cycle("sync") == 2
        san.check_finite("x", np.ones(3))
        san.check_nonnegative("w", np.ones(3))
        san.check_mass("m", 1.0, 1.0)
        assert san.checks == 3

    def test_violation_is_repro_error(self):
        assert issubclass(InvariantViolation, ReproError)

    def test_check_finite_raises_with_context(self):
        san = InvariantSanitizer()
        san.begin_cycle("sync")
        arr = np.ones(5)
        arr[3] = np.nan
        with pytest.raises(InvariantViolation) as exc:
            san.check_finite("estimates", arr, step=7)
        err = exc.value
        assert err.invariant == "finite"
        assert err.engine == "sync"
        assert err.cycle == 1
        assert err.step == 7
        assert err.node == 3
        assert "cycle 1" in str(err) and "step 7" in str(err)

    def test_check_nonnegative(self):
        san = InvariantSanitizer()
        san.check_nonnegative("w", np.zeros(4))  # zero is legal mass
        bad = np.array([0.5, -1e-3, 0.5])
        with pytest.raises(InvariantViolation) as exc:
            san.check_nonnegative("w", bad, step=2)
        assert exc.value.invariant == "nonnegative-mass"
        assert exc.value.node == 1

    def test_check_nonnegative_routes_nan_to_finite(self):
        san = InvariantSanitizer()
        with pytest.raises(InvariantViolation) as exc:
            san.check_nonnegative("w", np.array([1.0, np.nan]))
        assert exc.value.invariant == "finite"

    def test_check_mass_tolerance(self):
        san = InvariantSanitizer(rel_tol=1e-9)
        san.check_mass("sum(x)", 1.0 + 1e-12, 1.0)  # within tolerance
        with pytest.raises(InvariantViolation) as exc:
            san.check_mass("sum(x)", 1.01, 1.0, step=5)
        assert exc.value.invariant == "mass-conservation"
        assert exc.value.step == 5

    def test_check_mass_rejects_nan_total(self):
        san = InvariantSanitizer()
        with pytest.raises(InvariantViolation):
            san.check_mass("sum(x)", float("nan"), 1.0)

    def test_check_mass_bounded_one_sided(self):
        san = InvariantSanitizer()
        san.check_mass_bounded("mass", 0.4, 1.0)  # loss is fine
        with pytest.raises(InvariantViolation) as exc:
            san.check_mass_bounded("mass", 1.5, 1.0)
        assert "created mass" in str(exc.value)

    def test_check_allclose(self):
        san = InvariantSanitizer()
        a = np.full((3, 4), 2.0)
        san.check_allclose("partials", a, a.copy())
        b = a.copy()
        b[2, 0] += 1e-3
        with pytest.raises(InvariantViolation) as exc:
            san.check_allclose("partials", b, a)
        assert exc.value.invariant == "exact-agreement"
        assert exc.value.node == 2

    def test_check_row_stochastic(self):
        san = InvariantSanitizer()
        san.check_row_stochastic(np.ones(5))
        sums = np.ones(5)
        sums[4] = 0.7
        with pytest.raises(InvariantViolation) as exc:
            san.check_row_stochastic(sums)
        assert exc.value.invariant == "row-stochastic"
        assert exc.value.node == 4


# -- arming plumbing ---------------------------------------------------------


class TestArming:
    def test_env_flag_parsing(self, monkeypatch):
        for value, expected in [
            ("1", True), ("true", True), ("YES", True), ("on", True),
            ("0", False), ("", False), ("off", False), ("junk", False),
        ]:
            monkeypatch.setenv(ENV_FLAG, value)
            assert sanitize_enabled() is expected, value
        monkeypatch.delenv(ENV_FLAG)
        assert sanitize_enabled() is False

    def test_forced_override_beats_env(self, monkeypatch):
        monkeypatch.setenv(ENV_FLAG, "1")
        set_sanitize_enabled(False)
        assert sanitize_enabled() is False
        set_sanitize_enabled(None)
        assert sanitize_enabled() is True

    def test_config_default_follows_env(self, monkeypatch):
        monkeypatch.delenv(ENV_FLAG, raising=False)
        assert GossipTrustConfig(n=4).sanitize is False
        monkeypatch.setenv(ENV_FLAG, "1")
        assert GossipTrustConfig(n=4).sanitize is True

    def test_config_with_updates(self):
        cfg = GossipTrustConfig(n=4)
        assert cfg.with_updates(sanitize=True).sanitize is True

    @pytest.mark.parametrize("name", ENGINES)
    def test_factory_arms_from_config(self, name):
        cfg = GossipTrustConfig(n=N, seed=SEED, sanitize=True)
        assert make_engine(name, cfg).sanitizer is not None
        cfg_off = GossipTrustConfig(n=N, seed=SEED, sanitize=False)
        assert make_engine(name, cfg_off).sanitizer is None

    def test_arm_and_disarm(self):
        set_sanitize_enabled(False)  # isolate from a REPRO_SANITIZE=1 env
        eng = build("sync")
        assert eng.sanitizer is None
        san = eng.arm_sanitizer()
        assert eng.sanitizer is san
        shared = InvariantSanitizer(rel_tol=1e-6)
        assert eng.arm_sanitizer(shared) is shared
        eng.disarm_sanitizer()
        assert eng.sanitizer is None


# -- armed cross-engine contract --------------------------------------------


@pytest.mark.parametrize("name", ENGINES)
class TestArmedContract:
    def test_clean_cycle_passes_with_checks_firing(self, name, fixed_S):
        eng = build(name)
        san = eng.arm_sanitizer()
        res = eng.run_cycle(fixed_S, np.full(N, 1.0 / N))
        assert res.v_next.shape == (N,)
        assert san.cycle == 1, "begin_cycle hook did not run"
        assert san.checks > 0, "no invariant checks executed"
        assert san.engine == name

    def test_arming_does_not_change_results(self, name, fixed_S):
        v = np.full(N, 1.0 / N)
        plain = build(name).run_cycle(fixed_S, v)
        armed_engine = build(name)
        armed_engine.arm_sanitizer()
        armed = armed_engine.run_cycle(fixed_S, v)
        assert np.array_equal(plain.v_next, armed.v_next)
        assert plain.steps == armed.steps

    def test_cycle_counter_advances_per_cycle(self, name, fixed_S):
        eng = build(name)
        san = eng.arm_sanitizer()
        v = np.full(N, 1.0 / N)
        eng.run_cycle(fixed_S, v)
        eng.run_cycle(fixed_S, v)
        assert san.cycle == 2


class TestArmedUnderFaults:
    def test_message_engine_tolerates_genuine_loss(self, fixed_S):
        # Real drops destroy mass; the one-sided law must NOT fire.
        eng = build("message", loss_rate=0.2, max_rounds=60)
        san = eng.arm_sanitizer()
        res = eng.run_cycle(fixed_S, np.full(N, 1.0 / N))
        assert san.checks > 0
        assert res.messages_dropped > 0


# -- fault injection: each check must catch its fault ------------------------


class _CorruptingMatvecs:
    """Wraps the dense step's C scatter kernel; injects mass after some calls."""

    def __init__(self, real, after_calls=6):
        self.real = real
        self.calls = 0
        self.after_calls = after_calls

    def __call__(self, n_row, n_col, n_vecs, indptr, indices, data, other, out):
        self.real(n_row, n_col, n_vecs, indptr, indices, data, other, out)
        self.calls += 1
        if self.calls == self.after_calls:
            out[0] += 1.0  # conjure x-mass from nothing


class _TamperingTransport(Transport):
    """Transport that corrupts every gossip payload in a chosen way."""

    def __init__(self, sim, tamper, **kwargs):
        super().__init__(sim, **kwargs)
        self.tamper = tamper

    def send(self, src, dst, payload, *, kind="data", size=0):
        if kind == "gossip":
            self.tamper(payload)
        return super().send(src, dst, payload, kind=kind, size=size)


def _message_engine_with(tamper, seed=SEED):
    sim = Simulator()
    streams = RngStreams(seed)
    transport = _TamperingTransport(
        sim, tamper, latency=1.0, rng=streams.get("engine-net")
    )
    return make_engine(
        "message", n=N, rng=streams, sim=sim, transport=transport,
        max_rounds=50,
    )


class TestFaultInjection:
    def test_sync_corrupted_x_mass_raises(self, fixed_S, monkeypatch):
        if engine_mod._csc_matvecs is None:
            pytest.skip("scipy csc_matvecs kernel unavailable")
        monkeypatch.setattr(engine_mod, "_DENSIFY_THRESHOLD", 0.0)  # dense from step 1
        eng = build("sync")
        eng.arm_sanitizer()
        monkeypatch.setattr(
            engine_mod, "_csc_matvecs", _CorruptingMatvecs(engine_mod._csc_matvecs)
        )
        with pytest.raises(InvariantViolation) as exc:
            eng.run_cycle(fixed_S, np.full(N, 1.0 / N))
        err = exc.value
        assert err.invariant == "mass-conservation"
        assert err.engine == "sync"
        assert err.cycle == 1
        assert err.step is not None and err.step >= 1

    def test_message_negative_w_raises(self):
        def negate_w(payload):
            payload._w *= -1.0

        eng = _message_engine_with(negate_w)
        eng.arm_sanitizer()
        S = [{(i + 1) % N: 1.0} for i in range(N)]
        with pytest.raises(InvariantViolation) as exc:
            eng.run_cycle(S, np.full(N, 1.0 / N))
        err = exc.value
        assert err.invariant in ("nonnegative-mass", "mass-conservation")
        assert err.engine == "message"
        assert err.cycle == 1
        assert err.step is not None

    def test_message_nan_mass_raises(self):
        def poison(payload):
            payload._x[0] = np.nan

        eng = _message_engine_with(poison)
        eng.arm_sanitizer()
        S = [{(i + 1) % N: 1.0} for i in range(N)]
        with pytest.raises(InvariantViolation) as exc:
            eng.run_cycle(S, np.full(N, 1.0 / N))
        assert exc.value.invariant == "finite"
        assert exc.value.step is not None

    def test_message_duplicated_mass_raises(self):
        # Double delivery creates mass — the one-sided law catches it
        # even though drops normally excuse exact conservation.
        def duplicate(payload):
            payload._x *= 2.0
            payload._w *= 2.0

        eng = _message_engine_with(duplicate)
        eng.arm_sanitizer()
        S = [{(i + 1) % N: 1.0} for i in range(N)]
        with pytest.raises(InvariantViolation) as exc:
            eng.run_cycle(S, np.full(N, 1.0 / N))
        assert exc.value.invariant == "mass-conservation"

    def test_push_sum_sanitizer_catches_created_mass(self, monkeypatch):
        from repro.gossip import pushsum as pushsum_mod

        real_step = pushsum_mod.push_sum_step
        state = {"calls": 0}

        def corrupt_step(x, w, targets):
            nx, nw = real_step(x, w, targets)
            state["calls"] += 1
            if state["calls"] == 1:
                nx[0] += 5.0  # conjure x-mass from nothing
            return nx, nw

        monkeypatch.setattr(pushsum_mod, "push_sum_step", corrupt_step)
        san = InvariantSanitizer()
        with pytest.raises(InvariantViolation) as exc:
            push_sum(np.arange(8, dtype=float), np.ones(8), rng=0, sanitizer=san)
        assert exc.value.invariant == "mass-conservation"
        assert exc.value.engine == "push-sum"
        assert exc.value.step == 1

    def test_denormalized_trust_row_raises_when_enabled(self):
        raw = np.full((4, 4), 0.25)
        raw[2, :] = 0.4  # row sums to 1.6: not stochastic
        bad = sparse.csr_matrix(raw)
        # Pre-validated path skips checks when the sanitizer is off...
        set_sanitize_enabled(False)
        TrustMatrix(bad, _validated=True)
        # ...and re-validates (raising structured context) when armed.
        set_sanitize_enabled(True)
        with pytest.raises(InvariantViolation) as exc:
            TrustMatrix(bad, _validated=True)
        assert exc.value.invariant == "row-stochastic"
        assert exc.value.node == 2

    def test_valid_trust_matrix_passes_when_enabled(self, fixed_S):
        set_sanitize_enabled(True)
        TrustMatrix(fixed_S.sparse(), _validated=True)
