from .styles import WritingStyle, PY_STYLES, TEX_STYLES
from .prompts import PromptDoc, render_objective, render_constraints, render_prompt
from .answers import DegenerateEntryError, emit_answer
from .literals import LiteralTable
from .tex_code import normalize_terms, split_signed_terms

__all__ = [
    "WritingStyle",
    "PY_STYLES",
    "TEX_STYLES",
    "PromptDoc",
    "LiteralTable",
    "render_objective",
    "render_constraints",
    "render_prompt",
    "DegenerateEntryError",
    "emit_answer",
    "normalize_terms",
    "split_signed_terms",
]
