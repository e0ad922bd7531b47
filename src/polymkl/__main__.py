"""`python -m polymkl`: the same command as the `polymkl` console script."""

from .harness import main

if __name__ == "__main__":
    raise SystemExit(main())
