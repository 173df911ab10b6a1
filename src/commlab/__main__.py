"""``python -m commlab``: the same command line tool as ``commlab``."""

from commlab.cli import main

if __name__ == "__main__":
    main()
