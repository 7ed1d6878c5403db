"""``python -m specqual``: the command-line front end of ``specqual.cli``."""
from .cli import main
raise SystemExit(main())
