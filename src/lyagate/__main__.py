"""``python -m lyagate``: the same command line as the ``lyagate`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
