"""Cold-start imports: what a fresh interpreter loads, and lazy public names.

``repro`` and its ``algorithms``, ``privacy``, ``attacks`` and ``metrics``
packages resolve their public names on first access, and the stock
registries name their classes by import path. Each test runs in a fresh
interpreter, so modules the pytest process already imported cannot hide an
eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
LAZY_PACKAGES = ("repro", "repro.algorithms", "repro.privacy", "repro.attacks", "repro.metrics")


def _run(script: str, *args: str, timeout: float = 120) -> dict:
    """Run ``script`` in a fresh interpreter; return its last stdout line as JSON."""
    inherited = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + inherited if inherited else "")}
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("entry", ["repro.cli", "repro.api", "repro.service"])
def test_entry_point_loads_no_algorithm_attack_or_metric(entry):
    loaded = _run(
        "import importlib, json, sys\n"
        f"importlib.import_module({entry!r})\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))\n"
    )
    unwanted = [
        name for name in loaded
        if name.split(".")[:2] in (["repro", "attacks"], ["repro", "mining"], ["repro", "dp"])
        or name.startswith(("repro.algorithms.", "repro.metrics."))
    ]
    assert unwanted == []
    assert entry in loaded


def test_flash_report_job_loads_only_the_flash_algorithm(tmp_path):
    source = tmp_path / "data.csv"
    source.write_text(
        "zipcode,job,age,disease\n"
        "13053,engineer,29,flu\n13068,teacher,31,hiv\n13053,engineer,35,ulcer\n"
        "13068,nurse,40,flu\n14850,teacher,22,flu\n14850,nurse,24,cancer\n"
        "14853,engineer,28,hiv\n14853,teacher,33,ulcer\n"
    )
    out = _run(
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "argv = [sys.argv[1], sys.argv[2], '--qi', 'zipcode', '--qi', 'job',\n"
        "        '--numeric-qi', 'age', '--sensitive', 'disease', '--k', '2',\n"
        "        '--l', '2', '--algorithm', 'flash', '--report']\n"
        "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        "    code = main(argv)\n"
        "report = json.loads(err.getvalue())\n"
        "print(json.dumps({'code': code, 'metrics': sorted(report),\n"
        "                  'loaded': sorted(m for m in sys.modules if m.startswith('repro'))}))\n",
        str(source), str(tmp_path / "out.csv"),
    )
    assert out["code"] == 0
    assert {"linkage", "gcp", "homogeneity"} <= set(out["metrics"])
    algorithms = {
        name for name in out["loaded"] if name.startswith("repro.algorithms.")
    } - {"repro.algorithms.base"}
    assert algorithms == {"repro.algorithms.flash"}
    assert not any(name.startswith(("repro.mining", "repro.dp")) for name in out["loaded"])


# Every name in __all__ must be the object its defining module binds under
# that name. Importing every submodule first is the order that turns a name
# shared by a function and its submodule (repro.metrics.precision) into the
# module, if that name were lazy.
_IDENTITY_SCRIPT = """
import importlib, json, pkgutil, sys, types

packages = json.loads(sys.argv[1])
if sys.argv[2] == "submodules-first":
    for package in packages[1:]:
        path = importlib.import_module(package).__path__
        for info in pkgutil.iter_modules(path, package + "."):
            importlib.import_module(info.name)
wrong = []
for package in packages:
    module = importlib.import_module(package)
    missing = sorted(set(module.__all__) - set(dir(module)))
    if missing:
        wrong.append([package, "not in dir()", missing])
    for name in module.__all__:
        value = getattr(module, name)
        if isinstance(value, types.ModuleType):
            wrong.append([package, name, repr(value)])
            continue
        home = "repro._version" if name == "__version__" else value.__module__
        if getattr(sys.modules[home], name) is not value:
            wrong.append([package, name, repr(value)])
print(json.dumps(wrong))
"""


@pytest.mark.parametrize("order", ["fresh", "submodules-first"])
def test_public_names_are_the_objects_their_modules_define(order):
    assert _run(_IDENTITY_SCRIPT, json.dumps(LAZY_PACKAGES), order) == []


def test_registry_round_trips_every_entry_from_a_cold_start():
    out = _run(
        "import json, sys\n"
        "from repro.api import algorithm_registry, model_registry\n"
        "values = {'k': 3, 'l': 2, 'c': 1.5, 't': 0.3, 'alpha': 0.5, 'beta': 1.0,\n"
        "          'e': 2.0, 'sensitive': 'disease'}\n"
        "trips = {}\n"
        "for registry in (algorithm_registry, model_registry):\n"
        "    for name in registry.names():\n"
        "        spec = {registry.spec_key: name,\n"
        "                **{p: values[p] for p in registry.required(name)}}\n"
        "        trips[name] = [spec, registry.to_spec(registry.from_spec(spec))]\n"
        "# An instance built outside the registry serializes without an import.\n"
        "from repro.privacy.l_diversity import EntropyLDiversity\n"
        "model = EntropyLDiversity(3, 'disease')\n"
        "before = set(sys.modules)\n"
        "direct = [model_registry.to_spec(model), model_registry.name_of(model)]\n"
        "print(json.dumps({'trips': trips, 'direct': direct,\n"
        "                  'imported': sorted(set(sys.modules) - before)}))\n"
    )
    assert len(out["trips"]) == 19
    for spec, dumped in out["trips"].values():
        assert spec.items() <= dumped.items()
    assert out["direct"] == [
        {"model": "entropy-l-diversity", "l": 3, "sensitive": "disease"},
        "entropy-l-diversity",
    ]
    assert out["imported"] == []


_BATCH_SCRIPT = """
import hashlib, json, sys
import numpy as np
from repro.api import AnonymizationConfig, algorithm_registry, metric_registry, run_batch
from repro.core.io import format_csv
from repro.core.table import Column, Table

workers = int(sys.argv[1])
rng = np.random.default_rng(7)
n = 240
table = Table([
    Column.categorical("zipcode", [f"1305{v}" for v in rng.integers(0, 6, n)]),
    Column.categorical("job", [f"job{v}" for v in rng.integers(0, 5, n)]),
    Column.numeric("age", rng.integers(20, 60, n).astype(float)),
    Column.categorical("disease", [f"d{v}" for v in rng.integers(0, 4, n)]),
])
own = {"k": 3, "l": 2}
configs = [
    AnonymizationConfig.from_dict({
        "quasi_identifiers": ["zipcode", "job"],
        "numeric_quasi_identifiers": ["age"],
        "sensitive": ["disease"],
        "models": [{"model": "k-anonymity", "k": 3}],
        "algorithm": {"algorithm": name,
                      **{p: own[p] for p in algorithm_registry.required(name)}},
        "metrics": metric_registry.names(),
    })
    for name in algorithm_registry.names()
]
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-5)
try:
    results = run_batch(configs, table, workers=workers, on_error="collect")
finally:
    sys.setswitchinterval(interval)
out = {}
for config, result in zip(configs, results):
    name = config.algorithm["algorithm"]
    if result.status == "failed":
        out[name] = {"failed": result.error["message"]}
        continue
    digest = hashlib.sha256(format_csv(result.release.table)).hexdigest()
    out[name] = {"release": digest, "metrics": result.metrics}
print(json.dumps(out, sort_keys=True))
"""


_RACE_SCRIPT = """
import importlib, json, random, sys, threading
from concurrent.futures import ThreadPoolExecutor

packages = [importlib.import_module(name) for name in json.loads(sys.argv[1])]
from repro.api import algorithm_registry, model_registry

entries = [
    (registry, name) for registry in (algorithm_registry, model_registry)
    for name in registry.names()
]
barrier = threading.Barrier(8)


def first_use(seed):
    names = [(package, name) for package in packages for name in package.__all__]
    random.Random(seed).shuffle(names)
    barrier.wait(timeout=60)
    seen = {f"{p.__name__}.{n}": id(getattr(p, n)) for p, n in names}
    seen.update({f"{r.kind}:{n}": id(r._entries[n].cls) for r, n in entries})
    return seen


interval = sys.getswitchinterval()
sys.setswitchinterval(1e-5)
try:
    with ThreadPoolExecutor(max_workers=8) as pool:
        views = list(pool.map(first_use, range(8)))
finally:
    sys.setswitchinterval(interval)
final = {f"{p.__name__}.{n}": id(getattr(p, n)) for p in packages for n in p.__all__}
final.update({f"{r.kind}:{n}": id(r._entries[n].cls) for r, n in entries})
print(json.dumps({"names": len(final), "agree": all(view == final for view in views)}))
"""


def test_concurrent_first_access_binds_one_object_per_name():
    """Eight threads on two cores race to first use every lazy name and entry."""
    out = _run(_RACE_SCRIPT, json.dumps(LAZY_PACKAGES), timeout=300)
    assert out["agree"] is True
    assert out["names"] > 150


def test_concurrent_first_use_of_lazy_names_matches_sequential():
    """Four workers on two cores race through every job's first imports."""
    parallel = _run(_BATCH_SCRIPT, "4", timeout=300)
    sequential = _run(_BATCH_SCRIPT, "1", timeout=300)
    assert len(parallel) == 11
    assert [name for name, job in parallel.items() if "failed" in job] == []
    assert parallel == sequential
