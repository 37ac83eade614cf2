"""``python -m repro.validation`` — print both acceptance smoke grids'
verdict tables; exit 1 if a grid did not converge or a case failed."""

import sys

from repro.validation.acceptance import _SMOKE_GRIDS, _run_smoke
from repro.validation.acceptance import format_acceptance_table


def main() -> int:
    """Run and print each smoke grid; returns the process exit code."""
    failed = False
    for name, grid in _SMOKE_GRIDS.items():
        result, cases = _run_smoke(name)
        print(f"{name}: seed {grid.seed}, accuracy {grid.accuracy:g}")
        print(format_acceptance_table(cases))
        failed |= not result.converged or not all(c.passed for c in cases)
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover - tests call main()
    sys.exit(main())
