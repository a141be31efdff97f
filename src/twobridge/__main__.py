"""Run the command-line interface: ``python -m twobridge <command> ...``."""

from .cli import main

if __name__ == "__main__":
    main()
