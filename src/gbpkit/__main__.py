"""``python -m gbpkit``: the command-line front end."""
from .cli import run_main

if __name__ == "__main__":
    run_main()
