"""``python -m rumorsim``: the same command line as the ``rumorsim`` script."""

from .cli import main

if __name__ == "__main__":
    main()
