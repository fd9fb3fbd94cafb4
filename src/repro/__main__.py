"""``python -m repro`` entry point.

``gc.freeze()`` moves everything importing the CLI allocated into the
permanent generation, so the collection the sweep scheduler runs after
each packet cell walks only what the run itself allocated (about 0.2 ms
instead of 2 ms on an empty heap); forked pool workers inherit the frozen
set.  It lives here, not in :func:`repro.cli.main`, because in-process
callers of ``main`` (tests, embedding scripts) must not have their own
garbage frozen out of reach.

A reader that closes the pipe early (``python -m repro list | head -1``)
ends the run with exit status 1 and no traceback — Python's documented
recipe for ``SIGPIPE``: point stdout at ``os.devnull`` so the flush at
interpreter exit cannot raise a second ``BrokenPipeError``.  That too is
process-level behaviour, so it lives here and not in ``main``.
"""

import gc
import os
import sys

from repro.cli import main

gc.freeze()
try:
    status = main()
    sys.stdout.flush()
except BrokenPipeError:
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    status = 1
sys.exit(status)
