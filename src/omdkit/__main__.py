"""`python -m omdkit`: the omdkit command line, as the installed `omdkit` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
