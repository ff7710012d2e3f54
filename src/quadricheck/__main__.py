"""`python -m quadricheck ...` runs the command line, as the console script does."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
