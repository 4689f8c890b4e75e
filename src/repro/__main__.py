"""``python -m repro`` — see :mod:`repro.cli`."""

from repro.cli import run

if __name__ == "__main__":
    run()
