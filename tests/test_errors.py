"""Exception hierarchy contracts."""

import pytest

from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in errors.__all__:
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError)


def test_validation_error_is_value_error():
    assert issubclass(errors.ValidationError, ValueError)


def test_unknown_node_error_is_key_error():
    assert issubclass(errors.UnknownNodeError, KeyError)


def test_convergence_error_carries_diagnostics():
    err = errors.ConvergenceError("no luck", steps=42, residual=0.5)
    assert err.steps == 42
    assert err.residual == 0.5
    assert "no luck" in str(err)


def test_convergence_error_defaults():
    err = errors.ConvergenceError("plain")
    assert err.steps == -1
    assert err.residual != err.residual  # NaN


def test_catching_base_class_catches_subsystem_errors():
    with pytest.raises(errors.ReproError):
        raise errors.BloomCapacityError("full")
    with pytest.raises(errors.StorageError):
        raise errors.BloomCapacityError("full")

