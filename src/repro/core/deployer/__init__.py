"""The Design Deployer (§2.4).

Turns unified design solutions into platform executables (Figure 3's
right-hand side):

* :mod:`repro.core.deployer.ddl` — ``CREATE TABLE`` scripts for the MD
  schema (PostgreSQL / SQLite dialects),
* :mod:`repro.core.deployer.pdi` — Pentaho PDI ``.ktr`` transformation
  XML for the ETL flow,
* :mod:`repro.core.deployer.sqlscript` — a pure-SQL rendering of the
  ETL flow (INSERT INTO ... SELECT) for engines without an ETL tool,
* :mod:`repro.core.deployer.pig` — an Apache Pig Latin rendering of
  the ETL flow,
* :mod:`repro.core.deployer.deployer` — :class:`Deployer`: look the
  platform up in one generator table (``postgres``, ``sqlite``,
  ``pdi``, ``sql``, ``pig``) or *deploy natively* on the embedded
  engine (create tables, run the flow, ready the star for OLAP
  queries).
"""

from repro.core.deployer.deployer import Deployer, DeploymentResult

__all__ = ["Deployer", "DeploymentResult"]
