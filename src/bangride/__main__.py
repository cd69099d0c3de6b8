"""``python -m bangride``: the command-line harness, as the script runs it."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
