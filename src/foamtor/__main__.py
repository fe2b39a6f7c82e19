"""python -m foamtor: the foamtor command line (foamtor.cli)."""

import sys

from .cli import main

sys.exit(main())
