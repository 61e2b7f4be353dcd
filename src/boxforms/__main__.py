"""``python -m boxforms``: the same command line as the ``boxforms`` script."""

import sys

from .cli import main

sys.exit(main())
