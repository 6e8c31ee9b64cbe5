"""`python -m robinpsi`: the same command line as the `robinpsi` script."""

from .cli import run

if __name__ == "__main__":
    run()
