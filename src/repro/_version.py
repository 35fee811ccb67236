"""Single source of the package version.

Kept in a dependency-free module so ``setup.py`` can read it without
importing the package (and its numpy requirement). Everything else
imports it from here: ``repro.__version__``,
:meth:`repro.api.AnonymizationResult.to_dict` (so archived job reports name
the code that produced them), and the service ``/healthz`` payload (so a
deployment's version is one HTTP GET away).
"""

__version__ = "1.1.0"
