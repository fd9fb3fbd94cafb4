"""``python -m repro`` entry point.

``gc.freeze()`` moves everything importing the CLI allocated into the
permanent generation, so the collection the sweep scheduler runs after
each packet cell walks only what the run itself allocated (about 0.2 ms
instead of 2 ms on an empty heap); forked pool workers inherit the frozen
set.  It lives here, not in :func:`repro.cli.main`, because in-process
callers of ``main`` (tests, embedding scripts) must not have their own
garbage frozen out of reach.
"""

import gc
import sys

from repro.cli import main

gc.freeze()
sys.exit(main())
