"""``python -m maxaffine``: the ``maxaffine`` command line."""

import sys

from .harness_cli import main

if __name__ == "__main__":
    sys.exit(main())
