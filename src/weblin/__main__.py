"""`python -m weblin`: the `weblin` command."""
import sys

from . import cli

sys.exit(cli.main())
