"""`python -m fsconv ...` runs the fsconv command line (fsconv.cli.main)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
