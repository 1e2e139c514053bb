"""Standard-logging interop for the obs layer.

The pipeline modules log through ordinary :mod:`logging` loggers
(``repro.xsdgen``, ``repro.validation``, ``repro.xmi``), so library users
can attach their own handlers with zero repro-specific code.  The
``repro`` logger carries a :class:`logging.NullHandler` and stays silent
until they do; tracing leaves its level alone.
"""

from __future__ import annotations

import logging

#: The loggers the pipeline writes to.
PIPELINE_LOGGERS = (
    "repro.xsdgen",
    "repro.validation",
    "repro.xmi",
    "repro.binding",
)

_ROOT_LOGGER = "repro"


def get_logger(name: str) -> logging.Logger:
    """A ``repro.*`` logger, guaranteed quiet-by-default.

    Ensures the package root logger has a :class:`logging.NullHandler`
    so importing the library never prints "no handler" warnings.
    """
    root = logging.getLogger(_ROOT_LOGGER)
    if not any(isinstance(handler, logging.NullHandler) for handler in root.handlers):
        root.addHandler(logging.NullHandler())
    return logging.getLogger(name)
