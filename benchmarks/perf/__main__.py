"""``python -m benchmarks.perf`` (see :mod:`benchmarks.perf.cli`)."""

import sys

from benchmarks.perf.env import SRC

sys.path.insert(0, str(SRC))

from benchmarks.perf.cli import main  # noqa: E402  (needs the path above)

sys.exit(main())
