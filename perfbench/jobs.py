"""The job configurations each workload submits, as plain JSON dicts."""

from __future__ import annotations

from itertools import combinations

SENSITIVE = "disease"
QI_POOL = ("zipcode", "job", "age", "sex", "edu")
NUMERIC = ("age",)


def _config(qis, algorithm: dict, k: int, l: int = 0, max_suppression=None) -> dict:
    models = [{"model": "k-anonymity", "k": k}]
    if l:
        models.append({"model": "distinct-l-diversity", "l": l, "sensitive": SENSITIVE})
    config = {
        "quasi_identifiers": [q for q in qis if q not in NUMERIC],
        "numeric_quasi_identifiers": [q for q in qis if q in NUMERIC],
        "sensitive": [SENSITIVE],
        "models": models,
        "algorithm": algorithm,
    }
    if max_suppression is not None:
        config["max_suppression"] = max_suppression
    return config


def cli_job() -> dict:
    """cli-flash: Flash, k=10 + distinct-l=2 over zipcode, job, age."""
    return _config(("zipcode", "job", "age"), {"algorithm": "flash"}, 10, 2, 0.02)


def sweep_jobs() -> list[dict]:
    """sweep-lattice: every 3-of-5 QI subset x four lattice jobs (40 jobs)."""
    jobs = []
    for qis in combinations(QI_POOL, 3):
        jobs.append(_config(qis, {"algorithm": "flash"}, 5))
        jobs.append(_config(qis, {"algorithm": "flash"}, 25, 2))
        jobs.append(_config(qis, {"algorithm": "incognito"}, 10))
        jobs.append(_config(qis, {"algorithm": "incognito"}, 50, 2))
    return jobs


def service_flash_jobs() -> list[dict]:
    """The eight warm Flash configs the service clients cycle through."""
    return [
        _config((a, b, "age"), {"algorithm": "flash"}, k, 0, 0.02)
        for a, b in (("zipcode", "job"), ("zipcode", "edu"))
        for k in (5, 10, 25, 50)
    ]


def service_mondrian_job() -> dict:
    """Every fourth service op: relaxed Mondrian, k=10."""
    return _config(("zipcode", "job", "age"), {"algorithm": "mondrian", "mode": "relaxed"}, 10)


def model_bounds(config: dict) -> tuple[int, int]:
    """(k, l) the release of ``config`` must satisfy (l=1 when not asked)."""
    k, l = 1, 1
    for model in config["models"]:
        if model["model"] == "k-anonymity":
            k = max(k, int(model["k"]))
        elif model["model"] == "distinct-l-diversity":
            l = max(l, int(model["l"]))
    return k, l


def qi_names(config: dict) -> list[str]:
    return [*config["quasi_identifiers"], *config["numeric_quasi_identifiers"]]
