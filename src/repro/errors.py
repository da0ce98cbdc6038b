"""Exception hierarchy for the Quarry reproduction.

Every error raised by the library derives from :class:`QuarryError`, so
callers can catch one type at the facade boundary.  Sub-hierarchies mirror
the system components (expressions, ontology, sources, MD model, ETL
model, engine, formats, repository, core design components).
"""

from __future__ import annotations


class QuarryError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------
# Expression language
# --------------------------------------------------------------------------


class ExpressionError(QuarryError):
    """Base class for expression-language errors."""


class LexError(ExpressionError):
    """Raised when the expression lexer meets an invalid character."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ParseError(ExpressionError):
    """Raised when the expression parser meets an unexpected token."""


class TypeCheckError(ExpressionError):
    """Raised when an expression fails static type checking.

    ``node`` and ``expression`` optionally carry the flow-node name and
    the concrete expression text the failure occurred in, so diagnostics
    can point at the exact location instead of just quoting the message.
    """

    def __init__(
        self,
        message: str,
        *,
        node: "str | None" = None,
        expression: "str | None" = None,
    ) -> None:
        self.bare_message = message
        self.node = node
        self.expression = expression
        detail = message
        if expression is not None:
            detail = f"{detail} (in expression {expression!r})"
        if node is not None:
            detail = f"{detail} (at node {node!r})"
        super().__init__(detail)


class EvaluationError(ExpressionError):
    """Raised when an expression cannot be evaluated against a row."""


# --------------------------------------------------------------------------
# Ontology
# --------------------------------------------------------------------------


class OntologyError(QuarryError):
    """Base class for domain-ontology errors."""


class UnknownConceptError(OntologyError):
    """Raised when a concept id is not present in the ontology."""

    def __init__(self, concept_id: str) -> None:
        super().__init__(f"unknown concept: {concept_id!r}")
        self.concept_id = concept_id


class UnknownPropertyError(OntologyError):
    """Raised when a property id is not present in the ontology."""

    def __init__(self, property_id: str) -> None:
        super().__init__(f"unknown property: {property_id!r}")
        self.property_id = property_id


class DuplicateDefinitionError(OntologyError):
    """Raised when a concept or property id is defined twice."""


class OntologyParseError(OntologyError):
    """Raised when the ontology text serialisation cannot be parsed."""


# --------------------------------------------------------------------------
# Sources and mappings
# --------------------------------------------------------------------------


class SourceError(QuarryError):
    """Base class for source-schema errors."""


class UnknownTableError(SourceError):
    """Raised when a table name is not present in a source schema."""

    def __init__(self, table: str) -> None:
        super().__init__(f"unknown table: {table!r}")
        self.table = table


class UnknownColumnError(SourceError):
    """Raised when a column name is not present in a table."""

    def __init__(self, table: str, column: str) -> None:
        super().__init__(f"unknown column: {table!r}.{column!r}")
        self.table = table
        self.column = column


class MappingError(SourceError):
    """Raised when a source schema mapping is missing or inconsistent."""


# --------------------------------------------------------------------------
# Multidimensional model
# --------------------------------------------------------------------------


class MDError(QuarryError):
    """Base class for multidimensional-model errors."""


class MDConstraintViolation(MDError):
    """Raised when a schema violates an MD integrity constraint.

    Carries the individual violation messages so validation reports can
    show all problems at once.
    """

    def __init__(self, violations: list) -> None:
        self.violations = list(violations)
        summary = "; ".join(str(violation) for violation in self.violations)
        super().__init__(f"MD constraint violations: {summary}")


class SummarizabilityError(MDError):
    """Raised when an aggregation is not summarizable over a hierarchy."""


# --------------------------------------------------------------------------
# ETL model
# --------------------------------------------------------------------------


class EtlError(QuarryError):
    """Base class for ETL-flow errors."""


class FlowValidationError(EtlError):
    """Raised when an ETL flow fails structural validation."""

    def __init__(self, violations: list) -> None:
        self.violations = list(violations)
        summary = "; ".join(str(violation) for violation in self.violations)
        super().__init__(f"ETL flow validation failed: {summary}")


class SchemaPropagationError(EtlError):
    """Raised when an operation's output schema cannot be derived."""


class UnknownOperationError(EtlError):
    """Raised when a flow references an operation name that does not exist."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown operation: {name!r}")
        self.name = name


# --------------------------------------------------------------------------
# Engine
# --------------------------------------------------------------------------


class EngineError(QuarryError):
    """Base class for execution-engine errors."""


class ExecutionError(EngineError):
    """Raised when executing an ETL flow fails."""


class IntegrityError(EngineError):
    """Raised on primary/foreign key violations in the embedded database."""


# --------------------------------------------------------------------------
# Interchange formats
# --------------------------------------------------------------------------


class FormatError(QuarryError):
    """Base class for xRQ/xMD/xLM and XML-JSON conversion errors."""


class XrqFormatError(FormatError):
    """Raised when an xRQ document is malformed."""


class XmdFormatError(FormatError):
    """Raised when an xMD document is malformed."""


class XlmFormatError(FormatError):
    """Raised when an xLM document is malformed."""


# --------------------------------------------------------------------------
# Metadata repository
# --------------------------------------------------------------------------


class RepositoryError(QuarryError):
    """Base class for metadata-repository errors."""


class DocumentNotFoundError(RepositoryError):
    """Raised when a document id is not present in a collection."""

    def __init__(self, collection: str, doc_id: str) -> None:
        super().__init__(f"document {doc_id!r} not found in {collection!r}")
        self.collection = collection
        self.doc_id = doc_id


class DuplicateDocumentError(RepositoryError):
    """Raised when inserting a document whose id already exists."""


# --------------------------------------------------------------------------
# Core design components
# --------------------------------------------------------------------------


class RequirementError(QuarryError):
    """Raised when an information requirement is malformed or unmappable."""


class UnknownRequirementError(QuarryError):
    """Raised when a design change names a requirement the design lacks."""

    def __init__(self, requirement_id: str) -> None:
        super().__init__(f"unknown requirement {requirement_id!r}")
        self.requirement_id = requirement_id


class DuplicateRequirementError(QuarryError):
    """Raised when adding a requirement whose id the design already has."""

    def __init__(self, requirement_id: str) -> None:
        super().__init__(
            f"requirement {requirement_id!r} already exists; use "
            f"change_requirement"
        )
        self.requirement_id = requirement_id


class StaleMarkerError(QuarryError):
    """Raised when rolling the bus back to a marker taken before the
    log was compacted: the events that marker describes are gone."""


class InterpretationError(QuarryError):
    """Raised when a requirement cannot be translated into partial designs."""


class IntegrationError(QuarryError):
    """Raised when partial designs cannot be integrated."""


class DeploymentError(QuarryError):
    """Raised when a unified design cannot be deployed to a platform."""


class EvolutionError(QuarryError):
    """Raised when a design-evolution operator cannot be applied."""


class LintError(QuarryError):
    """Raised when the static linter blocks an action on ERROR diagnostics.

    Carries the individual :class:`repro.analysis.Diagnostic` objects so
    callers can render or filter them.
    """

    def __init__(self, diagnostics: list) -> None:
        self.diagnostics = list(diagnostics)
        summary = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(
            f"lint found {len(self.diagnostics)} error(s): {summary}"
        )
