"""``python -m stochlab <experiment> ...``: the same command line as ``stochlab``."""

from stochlab.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
