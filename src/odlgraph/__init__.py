"""Course multigraphs, navigation-log mining and path analytics for ODL courses.

Public names load on first use (PEP 562): ``import odlgraph`` runs none of the
package's modules, and ``from odlgraph import parse_log`` runs only the modules
``parse_log`` needs.
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "errors": (
        "AccessDenied", "DanglingRef", "DuplicateId", "EmptyContent", "GraphTooLarge", "LearnerMismatch",
        "NonAdjacentStep", "OdlError", "ParseError", "StyleMismatch", "UnsupportedFormat",
    ),
    "model": (
        "EdgeTag", "LearningActivity", "LearningEnvironment", "LearningObject", "LearningTask", "ObjectKind",
        "PrecedentEdge", "Violation", "add_activity", "add_edge", "add_object", "add_task", "empty_environment",
        "is_adjacent", "isomorphic", "validate",
    ),
    "course_format": (
        "CourseDocument", "TabularLine", "parse_graph_file", "parse_tabular", "read_document", "serialize",
    ),
    "options": ("DEFAULT_SESSION_TIMEOUT", "NoteAccess", "Overlay"),
    "sessions": (
        "ControlBlock", "LearningExperience", "Session", "Visit", "build_experience", "iter_blocks", "parse_log",
        "sessionize",
    ),
    "paths": (
        "CoverageReport", "Cycle", "DetourKind", "classify_cycle", "coverage", "detect_cycles", "erase_cycles",
        "split_strategy_tactics", "visit_order",
    ),
    "clusters": (
        "Cluster", "ClusterKind", "CoOccurrenceGraph", "SessionVisitSet", "connected_components", "cooccurrence",
        "format_clusters", "maximal_cliques", "read_clusters", "session_visit_sets", "threshold",
    ),
    "notes": (
        "BROADCAST", "LearnerNote", "Message", "NoteStore", "attach_note", "inbox", "list_notes", "new_store",
        "send_message",
    ),
    "dot_export": ("ExportStyle", "export_dot"),
}
_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
