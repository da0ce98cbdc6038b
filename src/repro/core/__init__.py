"""Quarry's core components (Figure 1 of the paper).

* :mod:`repro.core.requirements` — Requirements Elicitor,
* :mod:`repro.core.interpreter` — Requirements Interpreter,
* :mod:`repro.core.integrator` — Design Integrator (MD + ETL modules),
* :mod:`repro.core.deployer` — Design Deployer,
* :mod:`repro.core.services` — the design session (``Quarry``) wiring
  them through the communication & metadata layer.
"""

from repro.core.services.session import Quarry

__all__ = ["Quarry"]
