"""Realizability of Gauss diagrams by closed plane curves.

Two independent deciders live here.  ``is_realizable`` implements the
combinatorial criterion: a diagram is realizable iff it and every one of
its single-chord smoothings satisfy the even condition.  ``oracle_realizable``
brute-forces rotation systems of the diagram's 4-valent graph and accepts
iff one embeds in the plane.  ``cross_validate`` plays the two against
each other over all canonical diagrams up to a chord bound, and the
contour machinery (``exists_colorful_witness``) produces the re-checkable
colorful-chord certificates behind non-realizable verdicts.
"""

from ._kernels import BACKEND as KERNEL_BACKEND
from .codec import (
    ParseError,
    emit_batch,
    emit_gauss_code,
    parse_batch,
    parse_gauss_code,
)
from .contours import (
    ArcColoring,
    CContour,
    ChordsDoNotCross,
    ColorfulWitness,
    DegenerateContour,
    XContour,
    build_c_contour,
    build_x_contour,
    color_complement,
    colorful_chords,
    exists_colorful_witness,
    transfer_witness,
)
from .core import (
    CanonicalForm,
    ChordDiagram,
    GaussWord,
    Interlacement,
    MalformedWord,
    UnknownChord,
    canonicalize,
    crossing_labels,
    diagram_from_word,
    interlacement,
    symmetry_variants,
    word_from_positions,
)
from .enumeration import (
    Disagreement,
    SweepConfig,
    SweepReport,
    SweepRow,
    canonical_keys,
    cross_validate,
    enumerate_canonical,
    write_counterexamples,
)
from .oracle import (
    EmbeddingWitness,
    EmptyDiagram,
    FourValentMap,
    OracleBudgetExceeded,
    RotationSystem,
    build_map,
    oracle_realizable,
    trace_faces,
)
from .realizability import (
    EvenConditionReport,
    EvenConditionViolation,
    OracleCrossCheck,
    RealizabilityReport,
    SmoothingViolation,
    WitnessMismatch,
    even_condition,
    is_realizable,
    remove_isolated,
    verify_witness,
)
from .smoothing import (
    SmoothingResult,
    smooth_by_toggle,
    smooth_by_word,
    surviving_labels,
)

__version__ = "0.1.0"

__all__ = [
    "ArcColoring",
    "CContour",
    "CanonicalForm",
    "ChordDiagram",
    "ChordsDoNotCross",
    "ColorfulWitness",
    "DegenerateContour",
    "Disagreement",
    "EmbeddingWitness",
    "EmptyDiagram",
    "EvenConditionReport",
    "EvenConditionViolation",
    "FourValentMap",
    "GaussWord",
    "Interlacement",
    "KERNEL_BACKEND",
    "MalformedWord",
    "OracleBudgetExceeded",
    "OracleCrossCheck",
    "ParseError",
    "RealizabilityReport",
    "RotationSystem",
    "SmoothingResult",
    "SmoothingViolation",
    "SweepConfig",
    "SweepReport",
    "SweepRow",
    "UnknownChord",
    "WitnessMismatch",
    "XContour",
    "build_c_contour",
    "build_map",
    "build_x_contour",
    "canonical_keys",
    "canonicalize",
    "color_complement",
    "colorful_chords",
    "cross_validate",
    "crossing_labels",
    "diagram_from_word",
    "emit_batch",
    "emit_gauss_code",
    "enumerate_canonical",
    "even_condition",
    "exists_colorful_witness",
    "interlacement",
    "is_realizable",
    "oracle_realizable",
    "parse_batch",
    "parse_gauss_code",
    "remove_isolated",
    "smooth_by_toggle",
    "smooth_by_word",
    "surviving_labels",
    "symmetry_variants",
    "trace_faces",
    "transfer_witness",
    "verify_witness",
    "word_from_positions",
    "write_counterexamples",
]
