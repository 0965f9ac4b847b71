"""``python -m fracstep``: the ``fracstep`` command line (see :mod:`fracstep.cli`)."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
