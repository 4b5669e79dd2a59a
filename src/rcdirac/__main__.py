"""``python -m rcdirac``: the ``rcdirac`` command line."""

from .harness import main

main()
