"""Timed stages: one debug line each on the ``cylspec`` logger.

``logging`` is not imported here, since it adds about 0.4 MB to
``import cylspec``: a stage logs once something has imported it, as
whatever configures a handler to show debug lines must.
"""

from __future__ import annotations

import sys
import time


def stage(label, fn, *args):
    """fn(*args), logging one debug line: the label (or label(value)) and
    the time in ms."""
    started = time.perf_counter()
    value = fn(*args)
    logging = sys.modules.get("logging")
    log = logging and logging.getLogger("cylspec")
    if log and log.isEnabledFor(logging.DEBUG):
        ms = 1e3 * (time.perf_counter() - started)
        log.debug("%s: %.3f ms", label(value) if callable(label) else label, ms)
    return value
