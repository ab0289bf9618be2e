"""Run-logging helpers."""

import logging

from repro.utils.logging import configure, get_logger


class TestGetLogger:
    def test_namespaced_under_repro(self):
        log = get_logger("gossip.engine")
        assert log.name == "repro.gossip.engine"

    def test_already_namespaced_passthrough(self):
        log = get_logger("repro.core")
        assert log.name == "repro.core"

    def test_same_name_same_logger(self):
        assert get_logger("x") is get_logger("x")


class TestConfigure:
    def test_installs_single_handler(self):
        root = logging.getLogger("repro")
        before = [h for h in root.handlers if isinstance(h, logging.StreamHandler)]
        configure()
        configure()  # idempotent
        after = [h for h in root.handlers if isinstance(h, logging.StreamHandler)]
        assert len(after) == max(1, len(before))

    def test_sets_level(self):
        configure(level=logging.WARNING)
        assert logging.getLogger("repro").level == logging.WARNING
        configure(level=logging.INFO)  # restore

