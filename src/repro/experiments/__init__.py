"""Experiment drivers: one module per paper table/figure.

Every HOG run here is a registry :class:`~repro.scenarios.spec.ScenarioSpec`
executed by :class:`~repro.scenarios.runner.ScenarioRunner`; the drivers
only choose specs and fold results.

- :mod:`repro.experiments.tables` — Tables I, II, III
- :mod:`repro.experiments.fig4` — equivalent performance sweep, and the
  Table III cluster run it compares against
- :mod:`repro.experiments.fig5` — node fluctuation + Table IV
- :mod:`repro.experiments.ablations` — design-choice ablations + HOD
"""

from . import ablations, fig4, fig5, tables

__all__ = ["ablations", "fig4", "fig5", "tables"]
