"""Lightweight structured run logging.

The simulator and experiment harness emit progress through the standard
:mod:`logging` machinery under the ``repro`` namespace, so hosts can
route or silence it normally.  :func:`configure` is a convenience for
scripts; the library itself never calls it.
"""

from __future__ import annotations

import logging

__all__ = ["get_logger", "configure"]

_ROOT_NAME = "repro"


def get_logger(name: str) -> logging.Logger:
    """Return a logger under the ``repro`` hierarchy.

    ``get_logger("gossip.engine")`` -> logger named ``repro.gossip.engine``.
    """
    if name.startswith(_ROOT_NAME):
        return logging.getLogger(name)
    return logging.getLogger(f"{_ROOT_NAME}.{name}")


def configure(level: int = logging.INFO) -> None:
    """Install a console handler on the ``repro`` root logger (idempotent)."""
    root = logging.getLogger(_ROOT_NAME)
    root.setLevel(level)
    if not any(isinstance(h, logging.StreamHandler) for h in root.handlers):
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(name)s %(levelname)s %(message)s", "%H:%M:%S")
        )
        root.addHandler(handler)

