"""Seeded synthetic microdata for the benchmark workloads.

The schema is fixed: ``zipcode`` (200 five-digit strings sharing 3-digit
prefixes, so the ``auto`` hierarchy builder makes prefix hierarchies),
``job`` (30 values), numeric ``age``, ``sex``, ``edu`` (16 values) and the
sensitive ``disease`` (6 values). The same (rows, seed) always gives the
same bytes; files are cached under the benchmark's output directory, so a
repeated seed skips generation. The program under test only ever sees the
CSV files (or their bytes as an HTTP payload).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

HEADER = ("zipcode", "job", "age", "sex", "edu", "disease")
JOBS = tuple(f"job{i:02d}" for i in range(30))
EDUS = tuple(f"edu{i:02d}" for i in range(16))
SEXES = ("F", "M")
DISEASES = ("flu", "gastritis", "bronchitis", "pneumonia", "hiv", "cancer")


def _zipcodes() -> tuple[str, ...]:
    """200 codes: 10 three-digit prefixes x 20 suffixes, fixed across seeds."""
    prefixes = ("021", "100", "130", "148", "300", "476", "606", "750", "941", "981")
    return tuple(f"{p}{s:02d}" for p in prefixes for s in range(0, 100, 5))


ZIPCODES = _zipcodes()


def _skewed(rng: np.random.Generator, n_values: int, rows: int) -> np.ndarray:
    """Codes with a mild Zipf-like skew, so classes differ in size."""
    weights = 1.0 / np.arange(1, n_values + 1) ** 0.6
    rng.shuffle(weights)
    return rng.choice(n_values, size=rows, p=weights / weights.sum())


def generate_csv(rows: int, seed: int) -> bytes:
    """The CSV bytes (header + ``rows`` records) for one seed."""
    rng = np.random.default_rng([rows, seed])
    zips = np.array(ZIPCODES)[_skewed(rng, len(ZIPCODES), rows)]
    jobs = np.array(JOBS)[_skewed(rng, len(JOBS), rows)]
    ages = np.clip(rng.normal(42, 14, size=rows).round(), 17, 90).astype(int)
    sexes = np.array(SEXES)[rng.integers(0, 2, size=rows)]
    edus = np.array(EDUS)[_skewed(rng, len(EDUS), rows)]
    # Disease leans on age band so the sensitive column is not independent
    # noise, while every class still sees several values.
    base = _skewed(rng, len(DISEASES), rows)
    shift = (ages // 25) * rng.integers(0, 2, size=rows)
    diseases = np.array(DISEASES)[(base + shift) % len(DISEASES)]
    lines = [",".join(HEADER)]
    lines.extend(
        ",".join(fields)
        for fields in zip(zips, jobs, ages.astype(str), sexes, edus, diseases)
    )
    return ("\n".join(lines) + "\n").encode()


def dataset(out_dir: Path, rows: int, seed: int) -> Path:
    """Path of the cached CSV for (rows, seed), generating it on a miss."""
    path = out_dir / "data" / f"rows{rows}-seed{seed}.csv"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_bytes(generate_csv(rows, seed))
        os.replace(tmp, path)
    return path
