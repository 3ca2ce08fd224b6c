"""`python -m aircover run ...`: the scenario-file CLI."""
from aircover.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
