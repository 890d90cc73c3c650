"""python3 -m genpos: the genpos command line (see genpos.cli)."""

from genpos.cli import entry

if __name__ == "__main__":
    entry()
