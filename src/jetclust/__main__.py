"""`python -m jetclust ...` runs the command-line interface."""

from .cli import main

main()
