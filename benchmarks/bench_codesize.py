"""Size of the library: lines and modules under ``src/repro``.

The roadmap asks for the same numbers from less code, so the size of
``src/repro`` is tracked like any other metric.  ``src_lines`` counts
physical lines (as ``wc -l`` does) across every ``src/repro/**/*.py``
module and ``src_modules`` counts those modules.  Both are exact counts;
the committed baseline caps them with absolute bounds, so a change that
grows the library past the cap has to raise it on purpose.

    python benchmarks/bench_codesize.py
"""

from __future__ import annotations

from pathlib import Path

#: The package whose size is measured.
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Perf-ledger registration (``repro bench run --only codesize``).
LEDGER_GATED = {"src_lines": "lower", "src_modules": "lower"}


def ledger_metrics() -> dict:
    modules = sorted(SRC.rglob("*.py"))
    lines = 0
    for module in modules:
        with open(module, "rb") as handle:
            lines += handle.read().count(b"\n")
    return {"src_lines": lines, "src_modules": len(modules)}


def main() -> int:
    for name, value in ledger_metrics().items():
        print(f"{name}: {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
