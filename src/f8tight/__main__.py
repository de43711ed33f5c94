"""``python -m f8tight``: the same command as the installed ``f8tight`` script."""

from .cli import main

if __name__ == "__main__":
    main()
