"""``python -m tmkit`` runs the ``tm`` command."""

from .cli import main

main()
