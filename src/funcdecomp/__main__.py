"""``python -m funcdecomp``: the same command line as ``funcdecomp``."""

import sys

from .cli import main

sys.exit(main())
