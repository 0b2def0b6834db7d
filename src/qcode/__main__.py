"""`python -m qcode`: the command-line front-end of `qcode.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
